"""Ablations of NeoProf/NeoMem design choices.

Three mechanisms the paper motivates but does not ablate end-to-end:

* **hot-bit filter** (Fig. 7): without it every over-threshold access
  re-reports the page, flooding the bounded FIFO and dropping fresh
  reports;
* **error-bound checking** (Algorithm 1 lines 14-15): with an
  undersized sketch and no error clamp, collision-inflated counts
  promote cold pages;
* **tight vs loose error bound** (Sec. IV-B): the classical ``eps*N``
  bound saturates immediately while the histogram-based bound stays
  actionable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.neoprof.detector import HotPageDetector
from repro.core.neoprof.histogram import HistogramUnit, loose_error_bound, tight_error_bound
from repro.core.neoprof.sketch import CountMinSketch
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import build_workload
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.pageset import distinct_counts


@dataclass(frozen=True)
class FilterAblationResult:
    queued_with_filter: int
    dropped_with_filter: int
    queued_without_filter: int
    dropped_without_filter: int


def _run_filter_job(spec: JobSpec) -> FilterAblationResult:
    """Custom JobSpec runner: the filter ablation is a detector stream,
    not an engine run, so it bypasses ``run_one`` entirely."""
    return _filter_ablation(spec.resolved_config(), **spec.runner_kwargs)


def run_filter_ablation(
    config: ExperimentConfig = DEFAULT_CONFIG,
    epochs: int = 12,
    *,
    executor: SweepExecutor | None = None,
) -> FilterAblationResult:
    """Hot-bit filter on vs off, on a GUPS slow-tier stream."""
    job = JobSpec(
        workload="gups",
        policy="ablation-filter",
        config=config,
        runner="repro.experiments.ablation:_run_filter_job",
        runner_kwargs={"epochs": epochs},
    )
    return resolve_executor(executor).run([job])[0]


def _filter_ablation(config: ExperimentConfig, epochs: int) -> FilterAblationResult:
    workload = build_workload("gups", config, total_batches=epochs)
    rng = np.random.default_rng(config.seed)
    batches = []
    while True:
        batch = workload.next_batch(rng)
        if batch is None:
            break
        batches.append(distinct_counts(batch[0].astype(np.uint64)))

    results = {}
    for dedup in (True, False):
        detector = HotPageDetector(
            CountMinSketch(
                width=config.neoprof_config().sketch_width, depth=2, num_pages=workload.num_pages
            ),
            threshold=32,
            buffer_entries=4096,
            dedup_filter=dedup,
        )
        for pages, counts in batches:
            detector.observe(pages, counts)
        results[dedup] = (detector.detected_total, detector.dropped_reports)
    return FilterAblationResult(
        queued_with_filter=results[True][0],
        dropped_with_filter=results[True][1],
        queued_without_filter=results[False][0],
        dropped_without_filter=results[False][1],
    )


@dataclass(frozen=True)
class BoundAblationResult:
    sketch_width: int
    tight_bound: float
    loose_bound: float
    threshold_without_check: float
    threshold_with_check: float


def _run_bound_job(spec: JobSpec) -> BoundAblationResult:
    """Custom JobSpec runner for the error-bound ablation."""
    return _bound_ablation(spec.resolved_config(), **spec.runner_kwargs)


def run_bound_ablation(
    config: ExperimentConfig = DEFAULT_CONFIG,
    sketch_width: int = 1024,
    epochs: int = 12,
    *,
    executor: SweepExecutor | None = None,
) -> BoundAblationResult:
    """Undersized sketch: what does the error clamp protect against?"""
    job = JobSpec(
        workload="gups",
        policy="ablation-bound",
        config=config,
        runner="repro.experiments.ablation:_run_bound_job",
        runner_kwargs={"sketch_width": sketch_width, "epochs": epochs},
    )
    return resolve_executor(executor).run([job])[0]


def _bound_ablation(
    config: ExperimentConfig, sketch_width: int, epochs: int
) -> BoundAblationResult:
    from repro.core.policy import DynamicThresholdPolicy, ThresholdPolicyConfig

    workload = build_workload("gups", config, total_batches=epochs)
    rng = np.random.default_rng(config.seed)
    sketch = CountMinSketch(width=sketch_width, depth=2, num_pages=workload.num_pages)
    updates = 0
    while True:
        batch = workload.next_batch(rng)
        if batch is None:
            break
        sketch.update_batch(batch[0].astype(np.uint64))
        updates += batch[0].size

    hist = HistogramUnit(64).compute(sketch.lane_snapshot(0))
    tight = tight_error_bound(hist, depth=2, delta=0.25)
    loose = loose_error_bound(2.0 / sketch_width, updates)

    def final_threshold(check: bool) -> float:
        policy = DynamicThresholdPolicy(
            ThresholdPolicyConfig(
                p_min=0.0008, p_max=0.2, p_init=0.05, error_bound_check=check
            )
        )
        decision = policy.update(
            histogram=hist,
            bandwidth_util=0.3,
            ping_pong_ratio=0.0,
            error_bound=tight,
            migrated_pages=0,
        )
        return decision.threshold

    return BoundAblationResult(
        sketch_width=sketch_width,
        tight_bound=tight,
        loose_bound=loose,
        threshold_without_check=final_threshold(False),
        threshold_with_check=final_threshold(True),
    )
