"""The benchmark's workloads: which jobs each runs and how one pass runs.

Every workload is closed loop: one session process hands its whole job
list to one executor (or, for ``tlb-llc-dispersion``, calls the figure
function) and waits for it.  A *pass* is one such call; a session runs
a cold pass in a fresh process and then a warm pass on the same
executor, with the on-disk result cache off, so every pass simulates
every distinct job again.

Importing this module imports nothing from ``repro``: the orchestrator
only needs the names, and sessions import the simulator themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the bench scale of the figure grids
BENCH_SCALE = dict(num_pages=12288, batches=36, batch_size=12288)
#: the KV-cache grid is 0.4 s cold at bench scale, too short to time
#: steadily; the default experiment scale makes it ~1.3 s
KVCACHE_SCALE = dict(num_pages=32768, batches=48, batch_size=32768)
#: a scale small enough for the benchmark's own tests
TINY_SCALE = dict(num_pages=2048, batches=4, batch_size=2048)
#: Fig. 4-(b) access count at bench scale (rounded down to 8192-access
#: batches by the figure, so 196,608 accesses) and at tiny scale
FIG04B_ACCESSES = {"bench": 200_000, "tiny": 16_384}
FIG04B_BATCH = 8192


#: executor processes per workload; 1 runs the jobs in the session
#: process.  Why each workload was chosen is in README.md.
WORKERS = {
    "paper-grid": 1,
    "paper-grid-pool2": 2,
    "colocation": 1,
    "kvcache-tiers": 1,
    "tlb-llc-dispersion": 1,
}


def experiment_config(workload: str, seed: int, scale: str):
    """The ExperimentConfig a sweep workload runs at."""
    from repro.experiments.config import ExperimentConfig

    if scale == "tiny":
        size = TINY_SCALE
    elif workload == "kvcache-tiers":
        size = KVCACHE_SCALE
    else:
        size = BENCH_SCALE
    return ExperimentConfig(seed=seed, **size)


def job_list(workload: str, seed: int, scale: str) -> list:
    """The JobSpecs a sweep workload hands to its executor."""
    from repro.experiments.colocation import (
        colocation_sweep_jobs,
        colocation_sweep_solo_jobs,
    )
    from repro.experiments.fig11 import fig11_jobs
    from repro.experiments.fig12 import fig12_jobs
    from repro.experiments.fig17 import fig17_jobs
    from repro.experiments.kvcache import kvcache_jobs

    config = experiment_config(workload, seed, scale)
    if workload in ("paper-grid", "paper-grid-pool2"):
        return fig11_jobs(config=config) + fig12_jobs(config=config) + fig17_jobs(config=config)
    if workload == "colocation":
        solo_jobs, _ = colocation_sweep_solo_jobs(config=config)
        return colocation_sweep_jobs(config=config) + solo_jobs
    if workload == "kvcache-tiers":
        return kvcache_jobs(config=config)
    raise ValueError(f"{workload!r} is not a sweep workload")


@dataclass(frozen=True)
class Expectation:
    """What a correct result of one job looks like, for the invariants."""

    batch_size: int
    #: epochs of a single-tenant run (per tenant, for co-location)
    batches: int


class SweepPlan:
    """A job list on one SweepExecutor, result cache off."""

    def __init__(self, workload: str, seed: int, scale: str):
        from repro.experiments.sweep import SweepExecutor

        self.workers = WORKERS[workload]
        self.jobs = job_list(workload, seed, scale)
        self.executor = SweepExecutor(
            workers=self.workers,
            cache_dir="",
            backend="serial" if self.workers == 1 else "process-pool",
        )

    def run_pass(self) -> list:
        return self.executor.run(self.jobs)

    def expectation(self, job) -> Expectation:
        config = job.resolved_config()
        return Expectation(config.batch_size, config.batches)

    def dispatch_ns(self) -> dict:
        """Accumulated dispatch-overhead ns by phase (all passes so far)."""
        return dict(self.executor.stats.dispatch_ns)

    def job_walls_ns(self) -> list:
        """Per executed job wall clock of the last pass."""
        return [ns for ns in self.executor.backend.last_job_wall_ns if ns is not None]

    def close(self) -> None:
        self.executor.close()


class Fig04bPlan:
    """``run_fig04b`` called directly: no executor, one result per pass."""

    workers = 1

    def __init__(self, seed: int, scale: str):
        from repro.experiments.fig04 import run_fig04b

        self._run = run_fig04b
        self.seed = seed
        self.accesses = FIG04B_ACCESSES[scale]
        self.jobs = ["fig04b"]

    def run_pass(self) -> list:
        return [self._run(accesses=self.accesses, seed=self.seed)]

    def expectation(self, job) -> Expectation:
        return Expectation(FIG04B_BATCH, max(1, self.accesses // FIG04B_BATCH))

    def dispatch_ns(self) -> dict:
        return {}

    def job_walls_ns(self) -> list:
        return []

    def close(self) -> None:
        pass


def make_plan(workload: str, seed: int, scale: str = "bench"):
    if workload not in WORKERS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "tlb-llc-dispersion":
        return Fig04bPlan(seed, scale)
    return SweepPlan(workload, seed, scale)
