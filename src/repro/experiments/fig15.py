"""Figure 15: sensitivity to system and NeoProf parameters.

* **(a)** migration-interval sweep (10 ms - 5 s on the real machine;
  the scaled equivalents preserve interval : epoch ratios) — shorter is
  better, which is exactly the property only a low-overhead profiler
  can exploit;
* **(b)** migration-quota sweep — too little starves promotion, too
  much over-migrates;
* **(c)** sketch-width sweep: tight error bound vs W — falls to ~0 at
  the largest width;
* **(d)** sketch-width sweep: end-to-end performance vs W.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.fig14 import PAGERANK_KWARGS
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor

#: scaled migration intervals; x8 steps like the paper's 10 ms -> 5 s
MIGRATION_INTERVALS_S = (1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2)

#: quota sweep; the default 4 GB/s corresponds to Table V's 256 MB/s
QUOTAS_BYTES_PER_S = (5e8, 1e9, 2e9, 4e9, 8e9, 1.6e10, 3.2e10, 6.4e10)

#: sketch widths; 4K..64K scaled from the paper's 32K..512K
SKETCH_WIDTHS = (4096, 8192, 16384, 32768, 65536)


def _pagerank_neomem_job(
    config: ExperimentConfig, tag: str = "", **policy_kwargs
) -> JobSpec:
    """One Page-Rank/NeoMem sensitivity point as a JobSpec."""
    return JobSpec(
        "pagerank",
        "neomem",
        config,
        workload_overrides={"total_batches": None, **PAGERANK_KWARGS},
        policy_kwargs=policy_kwargs,
        tag=tag,
    )


def _normalized_runtimes(points, jobs, executor) -> dict:
    """Execute the jobs; return point -> best_time / time."""
    reports = resolve_executor(executor).run(jobs)
    times = {point: report.total_time_s for point, report in zip(points, reports)}
    best = min(times.values())
    return {point: best / t for point, t in times.items()}


def run_fig15a(
    config: ExperimentConfig = DEFAULT_CONFIG,
    intervals=MIGRATION_INTERVALS_S,
    *,
    executor: SweepExecutor | None = None,
):
    """Runtime vs migration interval (normalized to the best)."""
    jobs = [
        _pagerank_neomem_job(
            config,
            tag=f"interval={interval:g}",
            neomem_config=config.neomem_config(migration_interval_s=interval),
        )
        for interval in intervals
    ]
    return _normalized_runtimes(intervals, jobs, executor)


def run_fig15b(
    config: ExperimentConfig = DEFAULT_CONFIG,
    quotas=QUOTAS_BYTES_PER_S,
    *,
    executor: SweepExecutor | None = None,
):
    """Runtime vs migration quota (normalized to the best)."""
    from dataclasses import replace

    jobs = [
        _pagerank_neomem_job(replace(config, quota_bytes_per_s=quota))
        for quota in quotas
    ]
    return _normalized_runtimes(quotas, jobs, executor)


def run_fig15c(
    config: ExperimentConfig = DEFAULT_CONFIG,
    widths=SKETCH_WIDTHS,
    stream_epochs: int = 12,
):
    """Tight error bound vs sketch width, on a Page-Rank miss stream.

    Streams the same slow-tier page stream into sketches of each width
    and reads the histogram-based error bound — the Fig. 15-(c) curve.
    """
    from repro.core.neoprof.histogram import HistogramUnit, tight_error_bound
    from repro.core.neoprof.sketch import CountMinSketch
    from repro.workloads import make_workload

    workload = make_workload(
        "pagerank",
        num_pages=config.num_pages,
        batch_size=config.batch_size,
        total_batches=stream_epochs,
        **PAGERANK_KWARGS,
    )
    rng = np.random.default_rng(config.seed)
    batches = []
    while True:
        batch = workload.next_batch(rng)
        if batch is None:
            break
        batches.append(batch[0])
    unit = HistogramUnit(64)
    bounds = {}
    for width in widths:
        sketch = CountMinSketch(width=width, depth=2, num_pages=workload.num_pages)
        for pages in batches:
            sketch.update_batch(pages.astype(np.uint64))
        hist = unit.compute(sketch.lane_snapshot(0))
        bounds[width] = tight_error_bound(hist, depth=2, delta=0.25)
    return bounds


def run_fig15d(
    config: ExperimentConfig = DEFAULT_CONFIG,
    widths=SKETCH_WIDTHS,
    *,
    executor: SweepExecutor | None = None,
):
    """End-to-end performance vs sketch width (normalized to best)."""
    jobs = [
        _pagerank_neomem_job(
            config,
            tag=f"W={width}",
            neoprof_config=config.neoprof_config(sketch_width=width),
        )
        for width in widths
    ]
    return _normalized_runtimes(widths, jobs, executor)
