"""Figure 3: characterizing the CXL memory hardware.

* **(a)** the latency ladder — host DDR5, the "ideal" CXL device prior
  emulation studies assume, and Intel's FPGA prototype (≈3.6x local).
* **(b)** end-to-end slowdown when each benchmark runs entirely out of
  CXL memory versus entirely out of local DRAM (the paper binds the
  workload to one tier; 64 %-295 % slowdowns).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.tiers import CXL_DRAM_IDEAL, CXL_DRAM_PROTO, DDR5_LOCAL
from repro.workloads import BENCHMARKS


@dataclass(frozen=True)
class LatencyRung:
    name: str
    read_latency_ns: float
    ratio_vs_local: float


def run_fig03a() -> list[LatencyRung]:
    """The Fig. 3-(a) latency ladder from the tier specifications."""
    rungs = []
    for spec in (DDR5_LOCAL, CXL_DRAM_IDEAL, CXL_DRAM_PROTO):
        rungs.append(
            LatencyRung(
                name=spec.name,
                read_latency_ns=spec.read_latency_ns,
                ratio_vs_local=spec.read_latency_ns / DDR5_LOCAL.read_latency_ns,
            )
        )
    return rungs


def fig03b_jobs(
    config: ExperimentConfig = DEFAULT_CONFIG, workloads=BENCHMARKS
) -> list[JobSpec]:
    """Two jobs per workload: fast-tier-only and slow-tier-only binds."""
    jobs: list[JobSpec] = []
    for name in workloads:
        # everything fits the fast tier / everything lands on CXL
        jobs.append(JobSpec(name, "first-touch", config.with_ratio(1000, 1), tag=f"{name}/fast"))
        jobs.append(JobSpec(name, "first-touch", config.with_ratio(1, 1000), tag=f"{name}/slow"))
    return jobs


def run_fig03b(
    config: ExperimentConfig = DEFAULT_CONFIG,
    workloads=BENCHMARKS,
    *,
    executor: SweepExecutor | None = None,
) -> dict[str, float]:
    """Slowdown (%) of slow-tier-only vs fast-tier-only execution.

    Implemented as the paper does: bind the workload's memory to one
    tier by sizing the other to (almost) nothing, with no migration.
    """
    reports = resolve_executor(executor).run(fig03b_jobs(config, workloads))
    slowdowns: dict[str, float] = {}
    for i, name in enumerate(workloads):
        fast_only, slow_only = reports[2 * i], reports[2 * i + 1]
        slowdowns[name] = (slow_only.total_time_s / fast_only.total_time_s - 1.0) * 100.0
    return slowdowns


def expected_shape_fig03b(slowdowns: dict[str, float]) -> bool:
    """Acceptance check: every workload slows down meaningfully on CXL."""
    return all(s > 20.0 for s in slowdowns.values())
