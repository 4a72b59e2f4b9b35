"""The tiering loop runs each policy's profiler once per epoch and bills
its cost as the epoch's profiling overhead."""

import numpy as np
import pytest

from repro.memsim.engine import EngineConfig, SimulationEngine
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL
from repro.policies import make_policy

NUM_PAGES = 2000
EPOCHS = 6
PROFILE_NS = 1234.5


class UniformWorkload:
    name = "uniform"
    num_pages = NUM_PAGES

    def __init__(self, batches):
        self.batches = batches
        self.emitted = 0

    def next_batch(self, rng):
        if self.emitted >= self.batches:
            return None
        self.emitted += 1
        pages = rng.integers(0, NUM_PAGES, size=4096)
        return pages, np.zeros(pages.size, dtype=bool)


@pytest.mark.parametrize("name", ("pebs", "pte-scan", "autonuma", "tpp", "memtis"))
def test_profiler_cost_is_the_epoch_overhead(name):
    # A 1000:1 fast tier holds the whole RSS with room to spare, and the
    # migration cadence outlasts the run: nothing migrates, so the only
    # overhead an epoch carries is its profiling cost.
    policy = make_policy(name, NUM_PAGES, migration_interval_s=1e9)
    calls = []

    def observe(view):
        calls.append(view.epoch)
        return PROFILE_NS

    policy.profiler.observe = observe
    engine = SimulationEngine(
        UniformWorkload(EPOCHS),
        [(DDR5_LOCAL, 1000 * 4), (CXL_DRAM_PROTO, 4)],
        policy,
        EngineConfig(llc_capacity_pages=16, seed=7),
    )
    report = engine.run()
    assert calls == list(range(EPOCHS))
    assert report.series("profiling_overhead_ns") == [PROFILE_NS] * EPOCHS
    assert report.total_promoted_pages == 0
    assert report.total_demoted_pages == 0
