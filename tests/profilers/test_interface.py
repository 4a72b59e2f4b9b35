"""The profiler interface every tiering policy calls: observe, hot_candidates."""

import numpy as np
import pytest

from repro.core.neoprof.device import NeoProfConfig
from repro.profilers import (
    DamonProfiler,
    HintFaultProfiler,
    NeoProfProfiler,
    PebsProfiler,
    PteScanProfiler,
)

NUM_PAGES = 2000

#: one small, fast-cadence instance of each substrate
PROFILERS = {
    "pte-scan": lambda: PteScanProfiler(NUM_PAGES, scan_interval_s=1e-12),
    "damon": lambda: DamonProfiler(
        NUM_PAGES, num_regions=50, sample_interval_s=1e-12, aggregation_checks=2, hot_rate=0.1
    ),
    "hint-fault": lambda: HintFaultProfiler(
        NUM_PAGES, scan_window_pages=10_000, scan_interval_s=1e-12
    ),
    "pebs": lambda: PebsProfiler(NUM_PAGES, sample_interval=10),
    "neoprof": lambda: NeoProfProfiler(
        NUM_PAGES, NeoProfConfig(sketch_width=8192, initial_threshold=16)
    ),
}


@pytest.mark.parametrize("name", PROFILERS)
def test_fresh_profiler_reports_nothing(name):
    """Nothing observed yet, so nothing is hot."""
    prof = PROFILERS[name]()
    assert prof.name == name
    assert prof.hot_candidates().size == 0


@pytest.mark.parametrize("name", PROFILERS)
def test_candidates_are_distinct_page_ids(name, run_engine):
    """Policies hand candidates straight to the migration engine."""
    prof = PROFILERS[name]()
    run_engine(batches=10, profilers=[prof])
    hot = prof.hot_candidates()
    assert hot.size > 0
    assert np.issubdtype(hot.dtype, np.integer)
    assert np.unique(hot).size == hot.size
    assert 0 <= hot.min() and hot.max() < NUM_PAGES


@pytest.mark.parametrize("name", PROFILERS)
def test_observe_returns_one_cost_per_epoch(name, run_engine):
    """The engine adds each returned cost to that epoch's duration."""
    prof = PROFILERS[name]()
    policy, engine = run_engine(batches=10, profilers=[prof])
    costs = policy.overheads[id(prof)]
    assert len(costs) == len(policy.views) == 10
    assert all(isinstance(cost, float) and cost >= 0.0 for cost in costs)
