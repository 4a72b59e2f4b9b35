"""Figure 14: profiling NeoMem on the Page-Rank benchmark.

Four panels from one (or a few) Page-Rank runs:

* **(a)** per-iteration execution time, dynamic threshold vs fixed
  thetas — the dynamic policy is consistently fastest;
* **(b)** the evolving hotness threshold theta(t);
* **(c)** the runtime read/write bandwidth utilization NeoProf profiles;
* **(d)** the access-frequency histogram strip every few updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.metrics import SimulationReport

#: fixed thresholds compared against the dynamic policy.  The paper
#: sweeps theta in {100, 200, 400, 800} on the real device's counter
#: scale; these are the same operating points on the scaled sketch
#: (counts per clear window are ~8x smaller).
FIXED_THRESHOLDS = (8, 32, 128, 512)

PAGERANK_KWARGS = dict(iterations=16, batches_per_iteration=3, build_batches=6)


@dataclass
class PageRankProfile:
    """Everything Fig. 14 needs from one Page-Rank run."""

    policy_name: str
    report: SimulationReport
    iteration_times_s: list[float] = field(default_factory=list)
    threshold_timeline: list[tuple[float, float]] = field(default_factory=list)
    bandwidth_timeline: list[tuple[float, float, float]] = field(default_factory=list)
    histogram_strips: list[tuple[float, np.ndarray]] = field(default_factory=list)


def iteration_seconds(report: SimulationReport, workload) -> list[float]:
    """Per-iteration wall time of a Page-Rank run, in seconds.

    Sums epoch durations over each iteration's batch range: the
    workload's batch index is the engine's epoch.
    """
    durations = report.series("duration_ns")
    return [
        sum(durations[b] for b in workload.batches_of_iteration(i) if b < len(durations)) * 1e-9
        for i in range(workload.iterations)
    ]


def extract_pagerank_timelines(report: SimulationReport, engine) -> None:
    """Worker-side extractor: reduce the live engine to picklable data.

    Stores per-iteration wall times and, for NeoMem daemons, the
    threshold, bandwidth and histogram timelines as plain lists/arrays.
    """
    report.annotations["iteration_times_s"] = iteration_seconds(report, engine.workload)
    daemon = engine.policy
    if hasattr(daemon, "threshold_timeline"):
        report.annotations["threshold_timeline"] = list(daemon.threshold_timeline)
        report.annotations["bandwidth_timeline"] = list(daemon.bandwidth_timeline)
        report.annotations["histogram_strips"] = list(daemon.histogram_timeline)


def pagerank_job(policy_name: str, config: ExperimentConfig = DEFAULT_CONFIG) -> JobSpec:
    """One instrumented Page-Rank run as a JobSpec."""
    return JobSpec(
        "pagerank",
        policy_name,
        config,
        workload_overrides={"total_batches": None, **PAGERANK_KWARGS},
        extractor="repro.experiments.fig14:extract_pagerank_timelines",
    )


def profile_from_report(policy_name: str, report: SimulationReport) -> PageRankProfile:
    """Rebuild a :class:`PageRankProfile` from an extracted report."""
    return PageRankProfile(
        policy_name=policy_name,
        report=report,
        iteration_times_s=list(report.annotations.get("iteration_times_s", [])),
        threshold_timeline=list(report.annotations.get("threshold_timeline", [])),
        bandwidth_timeline=list(report.annotations.get("bandwidth_timeline", [])),
        histogram_strips=list(report.annotations.get("histogram_strips", [])),
    )


def run_pagerank(
    policy_name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    *,
    executor: SweepExecutor | None = None,
) -> PageRankProfile:
    """One instrumented Page-Rank run (dynamic or fixed threshold)."""
    report = resolve_executor(executor).run([pagerank_job(policy_name, config)])[0]
    return profile_from_report(policy_name, report)


def run_fig14a(
    config: ExperimentConfig = DEFAULT_CONFIG,
    fixed_thresholds=FIXED_THRESHOLDS,
    *,
    executor: SweepExecutor | None = None,
) -> dict[str, PageRankProfile]:
    """Dynamic vs fixed-theta per-iteration times (one sweep)."""
    names = {"dynamic": "neomem"}
    for theta in fixed_thresholds:
        names[f"theta={theta}"] = f"neomem-fixed-{theta}"
    jobs = [pagerank_job(policy, config) for policy in names.values()]
    reports = resolve_executor(executor).run(jobs)
    return {
        label: profile_from_report(policy, report)
        for (label, policy), report in zip(names.items(), reports)
    }


def dynamic_wins(profiles: dict[str, PageRankProfile]) -> bool:
    """Acceptance: dynamic total time beats every fixed threshold."""
    dynamic = profiles["dynamic"].report.total_time_s
    fixed = [
        p.report.total_time_s for name, p in profiles.items() if name != "dynamic"
    ]
    return dynamic <= min(fixed) * 1.02
