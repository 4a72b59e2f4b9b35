"""Figure 4: evaluating the existing memory-profiling mechanisms.

* **(a)** the PTE-scan (DAMON) resolution/overhead frontier: sweeping
  time resolution (sampling interval) and space resolution (number of
  regions) against CPU overhead, versus NeoProf's corner;
* **(b)** the TLB-access vs LLC-access dispersion on a Redis trace
  through the exact cache hierarchy (the paper's KCacheSim study);
* **(c)** PEBS slowdown versus sampling interval.

(a) and (c) measure *profiling* cost in isolation (no migration), with
real per-event costs (``overhead_scale`` is not applied — these panels
characterize the raw techniques on the real machine's terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import workload_pages
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.cache import Cache, CacheHierarchy
from repro.profilers.damon import DamonProfiler
from repro.profilers.pebs import PebsProfiler
from repro.workloads import make_workload


class ProfileOnlyPolicy:
    """Run one profiler against the stream; never migrate."""

    name = "profile-only"

    def __init__(self, profiler=None):
        self.profiler = profiler

    def on_epoch(self, view):
        if self.profiler is None:
            return 0.0
        return self.profiler.observe(view)


@dataclass(frozen=True)
class FrontierPoint:
    """One (time resolution, space resolution) -> overhead sample."""

    sample_interval_ms: float
    num_regions: int
    overhead_percent: float


# -- policy factories (JobSpec.policy_factory dotted-path targets) -----
def _profile_damon(num_pages: int, config, *, num_regions, sample_interval_s):
    return ProfileOnlyPolicy(
        DamonProfiler(
            num_pages,
            num_regions=min(num_regions, num_pages),
            sample_interval_s=sample_interval_s,
        )
    )


def _profile_pebs(num_pages: int, config, *, sample_interval):
    return ProfileOnlyPolicy(PebsProfiler(num_pages, sample_interval=sample_interval))


def _profile_none(num_pages: int, config):
    return ProfileOnlyPolicy(None)


def _profile_neoprof(num_pages: int, config):
    from repro.profilers.neoprof_adapter import NeoProfProfiler

    return ProfileOnlyPolicy(NeoProfProfiler(num_pages, config.neoprof_config()))


def _profiling_overhead_percent(report) -> float:
    return report.total_profiling_overhead_ns / max(report.total_time_ns, 1.0) * 100


def run_fig04a(
    config: ExperimentConfig = DEFAULT_CONFIG,
    intervals_ms=(0.2, 0.8, 3.2),
    region_counts=(64, 256, 1024, 4096),
    workload_name: str = "gups",
    *,
    executor: SweepExecutor | None = None,
) -> list[FrontierPoint]:
    """DAMON frontier: overhead vs (interval, regions)."""
    grid = [(i, r) for i in intervals_ms for r in region_counts]
    jobs = [
        JobSpec(
            workload_name,
            "profile-damon",
            config,
            policy_factory="repro.experiments.fig04:_profile_damon",
            policy_kwargs={
                "num_regions": regions,
                "sample_interval_s": interval_ms * 1e-3,
            },
        )
        for interval_ms, regions in grid
    ]
    reports = resolve_executor(executor).run(jobs)
    return [
        FrontierPoint(interval_ms, regions, _profiling_overhead_percent(report))
        for (interval_ms, regions), report in zip(grid, reports)
    ]


def run_fig04a_neoprof_point(
    config: ExperimentConfig = DEFAULT_CONFIG,
    *,
    executor: SweepExecutor | None = None,
) -> FrontierPoint:
    """NeoProf's corner: per-access resolution at ~zero CPU overhead."""
    job = JobSpec(
        "gups",
        "profile-neoprof",
        config,
        policy_factory="repro.experiments.fig04:_profile_neoprof",
    )
    report = resolve_executor(executor).run([job])[0]
    # NeoProf tracks every access to every page: 4 KB space resolution,
    # per-request time resolution -> reported as region count = RSS.
    return FrontierPoint(0.0, workload_pages("gups", config), _profiling_overhead_percent(report))


# ----------------------------------------------------------------------
@dataclass
class DispersionResult:
    """Per-page TLB accesses vs LLC misses and their correlation."""

    tlb_accesses: np.ndarray
    llc_misses: np.ndarray
    pearson_r: float

    @property
    def sampled_pages(self) -> int:
        return int(self.tlb_accesses.size)


def run_fig04b(
    num_pages: int = 4096,
    accesses: int = 200_000,
    seed: int = 7,
) -> DispersionResult:
    """TLB-level vs LLC-level visibility on a Redis trace (Fig. 4-(b)).

    Page accesses are expanded to byte addresses (random in-page
    offsets) and driven through the exact L1/L2/LLC hierarchy, one
    workload batch at a time.  Every access is a TLB access, the event
    population PTE-scan and hint-fault techniques sample from, so a
    page's TLB count is its access count; it is compared with the page's
    true LLC misses.  A low correlation demonstrates Challenge #2.
    """
    rng = np.random.default_rng(seed)
    workload = make_workload(
        "redis",
        num_pages=num_pages,
        total_batches=max(1, accesses // 8192),
        batch_size=8192,
    )
    # small hierarchy so the footprint : cache ratio matches the paper's
    hierarchy = CacheHierarchy(
        [
            Cache(32 * 1024, 8, name="l1d"),
            Cache(256 * 1024, 8, name="l2"),
            Cache(2 * 1024 * 1024, 16, name="llc"),
        ]
    )
    tlb_counts = np.zeros(num_pages, dtype=np.int64)
    llc_counts = np.zeros(num_pages, dtype=np.int64)
    while True:
        batch = workload.next_batch(rng)
        if batch is None:
            break
        pages, _ = batch
        offsets = rng.integers(0, 4096 // 64, size=pages.size) * 64
        hit_level = hierarchy.access_batch(pages * 4096 + offsets)
        tlb_counts += np.bincount(pages, minlength=num_pages)
        llc_counts += np.bincount(pages[hit_level < 0], minlength=num_pages)
    touched = (tlb_counts + llc_counts) > 0
    tlb_sample = tlb_counts[touched]
    llc_sample = llc_counts[touched]
    if tlb_sample.size > 1 and tlb_sample.std() > 0 and llc_sample.std() > 0:
        r = float(np.corrcoef(tlb_sample, llc_sample)[0, 1])
    else:
        r = 0.0
    return DispersionResult(tlb_sample, llc_sample, r)


# ----------------------------------------------------------------------
def run_fig04c(
    config: ExperimentConfig = DEFAULT_CONFIG,
    sample_intervals=(10, 100, 397, 1000, 5000, 10000),
    workload_name: str = "gups",
    *,
    executor: SweepExecutor | None = None,
) -> dict[int, float]:
    """PEBS slowdown (%) vs sampling interval (Fig. 4-(c))."""
    jobs = [
        JobSpec(
            workload_name,
            "profile-none",
            config,
            policy_factory="repro.experiments.fig04:_profile_none",
            tag="baseline",
        )
    ]
    jobs += [
        JobSpec(
            workload_name,
            "profile-pebs",
            config,
            policy_factory="repro.experiments.fig04:_profile_pebs",
            policy_kwargs={"sample_interval": interval},
        )
        for interval in sample_intervals
    ]
    reports = resolve_executor(executor).run(jobs)
    baseline = reports[0].total_time_ns
    return {
        interval: (report.total_time_ns / baseline - 1.0) * 100.0
        for interval, report in zip(sample_intervals, reports[1:])
    }
