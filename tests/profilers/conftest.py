"""Shared fixtures: a tiny engine whose views the profiler tests reuse."""

import numpy as np
import pytest

from repro.memsim.engine import EngineConfig, SimulationEngine
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL
from tests.memsim.test_engine import start_hot_set_on_slow_tier


class RecordingPolicy:
    """Runs attached profilers live each epoch and records their costs.

    Views reference live engine state (page table bits mutate every
    epoch), so profilers must observe *during* the run — replaying
    stored views afterwards would read final-state bits.
    """

    name = "recorder"

    def __init__(self, profilers=()):
        self.profilers = list(profilers)
        self.views = []
        self.overheads = {id(p): [] for p in self.profilers}

    def on_epoch(self, view):
        self.views.append(view)
        for profiler in self.profilers:
            self.overheads[id(profiler)].append(profiler.observe(view))
        return 0.0

    def overhead_of(self, profiler):
        return sum(self.overheads[id(profiler)])


class HotColdWorkload:
    """Hot pages 0..hot-1 hammered, the rest touched sparsely."""

    name = "hotcold"

    def __init__(self, num_pages=2000, hot=40, batches=10, batch_size=4096):
        self.num_pages = num_pages
        self.hot = hot
        self.batches = batches
        self.batch_size = batch_size
        self.emitted = 0

    def next_batch(self, rng):
        if self.emitted >= self.batches:
            return None
        self.emitted += 1
        hot = rng.integers(0, self.hot, size=int(self.batch_size * 0.85))
        cold = rng.integers(self.hot, self.num_pages, size=self.batch_size - hot.size)
        pages = np.concatenate([hot, cold])
        rng.shuffle(pages)
        return pages, rng.random(pages.size) < 0.3


@pytest.fixture
def run_engine():
    """Factory: run a small engine and return (policy, engine).

    Pass ``profilers=[...]`` to have them observe live during the run.
    """

    def _run(num_pages=2000, hot=40, batches=10, fast=100, slow=4000, policy=None, profilers=()):
        policy = policy or RecordingPolicy(profilers)
        workload = HotColdWorkload(num_pages=num_pages, hot=hot, batches=batches)
        engine = SimulationEngine(
            workload,
            [(DDR5_LOCAL, fast), (CXL_DRAM_PROTO, slow)],
            policy,
            EngineConfig(llc_capacity_pages=16, seed=3),
        )
        start_hot_set_on_slow_tier(engine, hot)
        engine.run()
        return policy, engine

    return _run
