"""Table I: memory-access profiling techniques comparison, measured.

The paper's Table I is qualitative; this harness backs each cell with a
measurement from the models: profiling resolution as the fraction of
true slow-tier accesses the technique observes, cache-awareness as
whether observed events are LLC misses, and overhead as measured CPU
share on a reference run.  Each technique is one profile-only JobSpec;
the observed-event counts live in profiler state, so a worker-side
extractor reduces them to a picklable annotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.fig04 import ProfileOnlyPolicy
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.profilers.hint_fault import HintFaultProfiler
from repro.profilers.neoprof_adapter import NeoProfProfiler
from repro.profilers.pebs import PebsProfiler
from repro.profilers.pte_scan import PteScanProfiler


@dataclass(frozen=True)
class TechniqueRow:
    name: str
    location: str
    cache_aware: bool
    events_observed: int
    true_slow_accesses: int
    overhead_percent: float

    @property
    def resolution(self) -> float:
        """Observed events per true slow-tier access."""
        if self.true_slow_accesses == 0:
            return 0.0
        return self.events_observed / self.true_slow_accesses


# -- policy factories (JobSpec.policy_factory dotted-path targets);
# -- the PEBS and NeoProf factories are shared with fig04 --------------
def _profile_pte_scan(num_pages: int, config):
    return ProfileOnlyPolicy(
        PteScanProfiler(num_pages, scan_interval_s=config.pte_scan_interval_s)
    )


def _profile_hint_fault(num_pages: int, config):
    return ProfileOnlyPolicy(
        HintFaultProfiler(
            num_pages,
            scan_interval_s=config.hint_fault_scan_interval_s,
            scan_window_pages=max(64, num_pages // 16),
        )
    )


def _extract_observed_events(report, engine) -> None:
    """Worker-side extractor: read each profiler's event counters."""
    profiler = engine.policy.profiler
    if isinstance(profiler, NeoProfProfiler):
        events = profiler.device.snooped_requests
    elif isinstance(profiler, PebsProfiler):
        events = profiler.total_samples
    elif isinstance(profiler, HintFaultProfiler):
        events = profiler.total_faults
    else:  # pte-scan observes at most one access per page per scan
        events = int(sum(np.sum(h) for h in profiler._history)) + profiler.scans_completed
        events = min(events, profiler.scans_completed * engine.workload.num_pages)
    report.annotations["events_observed"] = int(events)


#: (name, location, cache-aware, factory path, factory kwargs) per
#: technique; the paper tunes PEBS to 150 misses/sample here
_TECHNIQUES = (
    ("pte-scan", "TLB", False, "repro.experiments.table01:_profile_pte_scan", {}),
    ("hint-fault", "TLB", False, "repro.experiments.table01:_profile_hint_fault", {}),
    (
        "pebs",
        "PMU monitor",
        True,
        "repro.experiments.fig04:_profile_pebs",
        {"sample_interval": 150},
    ),
    (
        "neoprof",
        "device-side CXL controller",
        True,
        "repro.experiments.fig04:_profile_neoprof",
        {},
    ),
)


def table01_jobs(
    config: ExperimentConfig = DEFAULT_CONFIG, workload_name: str = "gups"
) -> list[JobSpec]:
    """One profile-only job per technique, in table order."""
    return [
        JobSpec(
            workload_name,
            f"profile-{name}",
            config,
            policy_factory=factory,
            policy_kwargs=dict(kwargs),
            extractor="repro.experiments.table01:_extract_observed_events",
        )
        for name, _, _, factory, kwargs in _TECHNIQUES
    ]


def run_table01(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workload_name: str = "gups",
    *,
    executor: SweepExecutor | None = None,
) -> list[TechniqueRow]:
    """Measure each profiling technique on the same workload."""
    reports = resolve_executor(executor).run(table01_jobs(config, workload_name))
    rows: list[TechniqueRow] = []
    for (name, location, cache_aware, _, _), report in zip(_TECHNIQUES, reports):
        true_slow = sum(e.slow_hits for e in report.epochs)
        overhead = report.total_profiling_overhead_ns / report.total_time_ns * 100
        rows.append(
            TechniqueRow(
                name=name,
                location=location,
                cache_aware=cache_aware,
                events_observed=int(report.annotations["events_observed"]),
                true_slow_accesses=int(true_slow),
                overhead_percent=float(overhead),
            )
        )
    return rows
