"""Memtis baseline (Lee et al., SOSP 2023) — the Fig. 17 comparison.

Memtis profiles with PEBS and sizes the hot set *dynamically*: it keeps
a histogram of per-page (decayed) access counts and picks the hotness
threshold so that the pages above it just fit the fast tier.  Periodic
"cooling" halves all counts so the classification adapts.

The paper's analysis (Sec. VII) found Memtis promotes very little under
rapidly changing access patterns because its PEBS feed is sparse and
the histogram classification lags — behaviour this model reproduces via
the shared PEBS sampling substrate.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.policies.base import BaseTieringPolicy
from repro.profilers.pebs import PebsProfiler


class MemtisPolicy(BaseTieringPolicy):
    """PEBS + histogram-sized hot set."""

    name = "memtis"

    def __init__(
        self,
        num_pages: int,
        sample_interval: int = 397,
        cooling_interval_s: float = 2.0,
        min_samples: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.min_samples = float(min_samples)
        self.profiler = PebsProfiler(
            num_pages,
            sample_interval=sample_interval,
            decay_interval_s=cooling_interval_s,
        )

    def _select_promotions(self, view) -> np.ndarray:
        counts = self.profiler.sample_count
        sampled = np.nonzero(counts >= self.min_samples)[0]
        if sampled.size == 0:
            return np.zeros(0, dtype=np.int64)
        # Histogram-based hot-set sizing: find the smallest count
        # threshold such that the pages above it fit the fast tier.
        budget = max(int(view.fast_capacity_pages * 0.95), 1)
        order = np.argsort(counts[sampled])[::-1]
        ranked = sampled[order]
        hot_set = ranked[:budget]
        self.current_threshold = float(counts[hot_set[-1]]) if hot_set.size else 0.0
        on_slow = view.page_table.nodes_of(hot_set) > FAST_NODE
        candidates = hot_set[on_slow].astype(np.int64)
        self.profiler.sample_count[candidates] = 0.0
        return candidates
