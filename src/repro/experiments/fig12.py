"""Figure 12: performance under different fast:slow memory ratios.

NeoMem vs PEBS (the second-best system from Fig. 11) at 1:2, 1:4 and
1:8 fast:slow capacity ratios over the eight benchmarks.  The paper's
shape: NeoMem always >= PEBS; the gap widens for Page-Rank and Btree as
the fast tier shrinks; GUPS and XSBench stay roughly flat because their
hot sets fit even the smallest fast tier.
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.workloads import BENCHMARKS

RATIOS = ((1, 2), (1, 4), (1, 8))
SYSTEMS = ("neomem", "pebs")


def fig12_jobs(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workloads=BENCHMARKS,
    ratios=RATIOS,
    systems=SYSTEMS,
) -> list[JobSpec]:
    """The (workload x ratio x system) grid as JobSpecs, in grid order."""
    return [
        JobSpec(workload, system, config.with_ratio(*ratio), tag=f"1:{ratio[1]}")
        for workload in workloads
        for ratio in ratios
        for system in systems
    ]


def run_fig12(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workloads=BENCHMARKS,
    ratios=RATIOS,
    *,
    executor: SweepExecutor | None = None,
) -> dict[str, dict[tuple[int, int], dict[str, float]]]:
    """Returns runtimes[workload][ratio][system] in seconds."""
    reports = resolve_executor(executor).run(fig12_jobs(config, workloads, ratios))
    flat = iter(reports)
    return {
        workload: {
            ratio: {system: next(flat).total_time_s for system in SYSTEMS}
            for ratio in ratios
        }
        for workload in workloads
    }


def normalized_to_pebs(results) -> dict[str, dict[tuple[int, int], float]]:
    """NeoMem performance normalized to PEBS per (workload, ratio)."""
    return {
        workload: {
            ratio: by_system["pebs"] / by_system["neomem"]
            for ratio, by_system in by_ratio.items()
        }
        for workload, by_ratio in results.items()
    }
