"""Figure 16: convergence analysis on GUPS.

90 % of accesses hit a hot region; mid-run the hot region *moves*.
Each profiling technique drives its tiering policy and the per-epoch
GUPS throughput is recorded.  The paper's shape:

* NeoProf reaches the highest converged throughput (accurate hot/cold
  split, no wasted migration),
* after the hot-set change NeoProf re-converges fastest,
* the no-tiering baseline stays flat and lowest,
* PEBS/hint-fault/PTE-scan converge slower and/or lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.metrics import SimulationReport

#: profiling methods compared, with the paper's curve labels
METHODS = {
    "neoprof": "neomem",
    "pebs": "pebs",
    "hint-fault": "tpp",
    "pte-scan": "pte-scan",
    "baseline": "first-touch",
}


@dataclass
class ConvergenceCurve:
    label: str
    throughput: list[float]  # accesses/s per epoch
    relocate_epoch: int
    report: SimulationReport

    def mean_before(self) -> float:
        """Converged throughput just before the hot-set change."""
        window = self.throughput[max(0, self.relocate_epoch - 8) : self.relocate_epoch]
        return float(np.mean(window)) if window else 0.0

    def recovery_epochs(self, fraction: float = 0.9) -> int | None:
        """Epochs after the change until ``fraction`` of the pre-change
        throughput is restored; None if never."""
        target = self.mean_before() * fraction
        for idx, value in enumerate(self.throughput[self.relocate_epoch :]):
            if value >= target:
                return idx
        return None


def fig16_jobs(
    config: ExperimentConfig = DEFAULT_CONFIG,
    methods: dict[str, str] | None = None,
    total_batches: int = 96,
    relocate_at: int = 48,
) -> list[JobSpec]:
    """One relocating-GUPS job per profiling method, in method order."""
    methods = methods or METHODS
    return [
        JobSpec(
            "gups",
            policy_name,
            config,
            workload_overrides={
                "total_batches": total_batches,
                "relocate_at": relocate_at,
            },
            tag=label,
        )
        for label, policy_name in methods.items()
    ]


def run_fig16(
    config: ExperimentConfig = DEFAULT_CONFIG,
    methods: dict[str, str] | None = None,
    total_batches: int = 96,
    relocate_at: int = 48,
    *,
    executor: SweepExecutor | None = None,
) -> dict[str, ConvergenceCurve]:
    """Run the convergence study; returns label -> curve."""
    methods = methods or METHODS
    jobs = fig16_jobs(config, methods, total_batches, relocate_at)
    reports = resolve_executor(executor).run(jobs)
    return {
        label: ConvergenceCurve(
            label=label,
            throughput=[e.throughput_aps for e in report.epochs],
            relocate_epoch=relocate_at,
            report=report,
        )
        for label, report in zip(methods, reports)
    }


def neoprof_converges_fastest(curves: dict[str, ConvergenceCurve]) -> bool:
    """Acceptance: NeoProf recovers at least as fast as every rival."""
    neoprof = curves["neoprof"].recovery_epochs()
    if neoprof is None:
        return False
    for label, curve in curves.items():
        if label in ("neoprof", "baseline"):
            continue
        rival = curve.recovery_epochs()
        if rival is not None and rival < neoprof:
            return False
    return True
