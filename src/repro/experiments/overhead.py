"""Section VI-D: CPU overhead of NeoMem profiling (the 0.021 % claim).

The paper measures GUPS slowdown with NeoProf enabled (profiling and
periodic host readouts active) against the same system with NeoProf
disabled — migration is not the variable, profiling cost is.  Here:
a GUPS run under a NeoMem daemon whose migrations are disabled (quota
zero) versus the identical run with no policy at all.
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.profilers.neoprof_adapter import NeoProfProfiler


class ProfilingOnlyNeoMem:
    """NeoProf enabled, migration disabled.

    Snoops every epoch (free, hardware) and performs the daemon's
    periodic host-side readouts — draining the hot FIFO, reading state
    counters and the histogram — whose MMIO time is the *entire* CPU
    cost of NeoMem profiling.
    """

    name = "neoprof-profiling-only"

    def __init__(self, num_pages: int, config: ExperimentConfig):
        self.profiler = NeoProfProfiler(num_pages, config.neoprof_config())
        self.migration_interval_s = config.migration_interval_s
        self.thr_update_interval_s = config.thr_update_interval_s
        self._next_drain_ns = 0.0
        self._next_readout_ns = 0.0

    def on_epoch(self, view) -> float:
        overhead = self.profiler.observe(view)
        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns >= self._next_drain_ns:
            self._next_drain_ns = now_ns + self.migration_interval_s * 1e9
            self.profiler.hot_candidates()  # billed on the next observe
        if now_ns >= self._next_readout_ns:
            self._next_readout_ns = now_ns + self.thr_update_interval_s * 1e9
            self.profiler.driver.read_state()
            self.profiler.driver.read_histogram()
        return overhead


def _profiling_only_policy(num_pages: int, config):
    """Policy factory for the profiling-enabled arm of the comparison."""
    return ProfilingOnlyNeoMem(num_pages, config)


def overhead_jobs(config: ExperimentConfig = DEFAULT_CONFIG) -> list[JobSpec]:
    """The two arms: no policy at all vs profiling-only NeoMem."""
    return [
        JobSpec("gups", "first-touch", config, tag="baseline"),
        JobSpec(
            "gups",
            "neoprof-profiling-only",
            config,
            policy_factory="repro.experiments.overhead:_profiling_only_policy",
            tag="profiled",
        ),
    ]


def run_overhead(
    config: ExperimentConfig = DEFAULT_CONFIG,
    *,
    executor: SweepExecutor | None = None,
) -> dict[str, float]:
    """Return baseline/profiled runtimes and the slowdown percentage."""
    baseline, profiled = resolve_executor(executor).run(overhead_jobs(config))
    baseline_s = baseline.total_time_s
    profiled_s = profiled.total_time_s
    slowdown = (profiled_s / baseline_s - 1.0) * 100.0
    return {
        "baseline_s": baseline_s,
        "profiled_s": profiled_s,
        "slowdown_percent": slowdown,
    }
