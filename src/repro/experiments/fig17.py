"""Figure 17: end-to-end comparison with Memtis.

Memtis (SOSP 2023) profiles with PEBS and sizes its hot set from a
count histogram with periodic cooling.  The paper ports Memtis to the
FPGA platform and measures a 1.58x geomean NeoMem win, near-parity on
603.bwaves and the largest gap on GUPS (Memtis promotes only ~1 % of
the pages NeoMem does under fast-changing access patterns).
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import geomean
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.metrics import SimulationReport
from repro.workloads import BENCHMARKS

SYSTEMS = ("neomem", "memtis")


def fig17_jobs(
    config: ExperimentConfig = DEFAULT_CONFIG, workloads=BENCHMARKS, systems=SYSTEMS
) -> list[JobSpec]:
    """The (workload x system) comparison grid as JobSpecs."""
    return [
        JobSpec(workload, system, config)
        for workload in workloads
        for system in systems
    ]


def run_fig17(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workloads=BENCHMARKS,
    *,
    executor: SweepExecutor | None = None,
) -> dict[str, dict[str, SimulationReport]]:
    """Run NeoMem and Memtis over the benchmark suite."""
    reports = resolve_executor(executor).run(fig17_jobs(config, workloads))
    flat = iter(reports)
    return {
        workload: {system: next(flat) for system in SYSTEMS}
        for workload in workloads
    }


def normalized_to_neomem(reports) -> dict[str, float]:
    """Memtis performance normalized to NeoMem per workload (< 1 means
    Memtis is slower), plus the geomean."""
    norm = {
        workload: by_system["neomem"].total_time_s / by_system["memtis"].total_time_s
        for workload, by_system in reports.items()
    }
    norm["geomean"] = geomean(norm.values())
    return norm
