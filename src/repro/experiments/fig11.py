"""Figure 11: end-to-end performance, 8 workloads x 6 systems.

Runs every (benchmark, policy) pair at the default 1:2 fast:slow ratio
and reports performance normalized to the PEBS system, plus the geomean
row — the paper's headline 32 %-67 % NeoMem win.

Figure 13 (slow-tier traffic and promotion/demotion counts) is derived
from the same runs; ``run_fig11`` returns the full reports so the two
harnesses can share one sweep.
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import geomean
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.metrics import SimulationReport
from repro.workloads import BENCHMARKS

#: the six systems of Fig. 11, in plotting order
SYSTEMS = ("neomem", "pebs", "pte-scan", "autonuma", "tpp", "first-touch")


def fig11_jobs(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workloads=BENCHMARKS,
    systems=SYSTEMS,
) -> list[JobSpec]:
    """The (workload x system) grid as JobSpecs, in grid order."""
    return [
        JobSpec(workload, system, config)
        for workload in workloads
        for system in systems
    ]


def run_fig11(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workloads=BENCHMARKS,
    systems=SYSTEMS,
    *,
    executor: SweepExecutor | None = None,
) -> dict[str, dict[str, SimulationReport]]:
    """Run the full grid; returns reports[workload][system]."""
    results = resolve_executor(executor).run(fig11_jobs(config, workloads, systems))
    flat = iter(results)
    return {
        workload: {system: next(flat) for system in systems}
        for workload in workloads
    }


def normalized_performance(
    reports: dict[str, dict[str, SimulationReport]],
    baseline: str = "pebs",
) -> dict[str, dict[str, float]]:
    """Per-workload performance normalized to ``baseline`` (higher is
    better), plus a "geomean" pseudo-workload row."""
    table: dict[str, dict[str, float]] = {}
    for workload, by_system in reports.items():
        base_time = by_system[baseline].total_time_s
        table[workload] = {
            system: base_time / report.total_time_s
            for system, report in by_system.items()
        }
    systems = next(iter(table.values())).keys()
    table["geomean"] = {
        system: geomean(table[w][system] for w in reports) for system in systems
    }
    return table


def headline_speedups(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """NeoMem's geomean speedup over each baseline (the 32 %-67 % claim)."""
    geo = table["geomean"]
    neomem = geo["neomem"]
    return {system: neomem / value for system, value in geo.items() if system != "neomem"}
