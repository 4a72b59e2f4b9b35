"""DAMON-style region-sampling profiler (Fig. 4-(a) trade-off study).

DAMON reduces PTE-scan cost by tracking *regions* instead of pages: each
region is represented by one sampled page, and the per-region access
rate ("nr_accesses") is the fraction of sampling checks in which that
page's accessed bit was found set.  Fewer regions means lower overhead
but coarser space resolution — exactly the trade-off frontier the
paper's Fig. 4-(a) plots against NeoProf.

The model keeps regions of equal size (DAMON's adaptive split/merge is
approximated by resampling the representative page every aggregation
interval, which bounds intra-region error the same way in expectation).
"""

from __future__ import annotations

import numpy as np

from repro.profilers.base import Profiler


class DamonProfiler(Profiler):
    """Region-based sampling over the address space.

    Args:
        num_pages: Resident-set size.
        num_regions: Monitoring regions (space resolution knob).
        sample_interval_s: Time between sampling checks (time
            resolution knob).
        aggregation_checks: Checks per aggregation window; per-region
            access rates are published once per window.
        ns_per_check: Cost of checking + clearing one sampled PTE.
        hot_rate: Minimum access rate (fraction of checks with the bit
            set) for a region to be considered hot.
        seed: Seed of the representative-page generator.
    """

    name = "damon"

    def __init__(
        self,
        num_pages: int,
        num_regions: int = 256,
        sample_interval_s: float = 0.005,
        aggregation_checks: int = 20,
        ns_per_check: float = 400.0,
        hot_rate: float = 0.7,
        seed: int = 99,
    ) -> None:
        if num_pages <= 0 or num_regions <= 0:
            raise ValueError("sizes must be positive")
        if num_regions > num_pages:
            raise ValueError("cannot have more regions than pages")
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.num_pages = int(num_pages)
        self.num_regions = int(num_regions)
        self.sample_interval_s = float(sample_interval_s)
        self.aggregation_checks = int(aggregation_checks)
        self.ns_per_check = float(ns_per_check)
        self.hot_rate = float(hot_rate)
        self._rng = np.random.default_rng(seed)
        bounds = np.linspace(0, self.num_pages, self.num_regions + 1).astype(np.int64)
        self._starts, self._ends = bounds[:-1], bounds[1:]
        self._sample_pages = self._resample()
        self._check_hits = np.zeros(self.num_regions, dtype=np.int64)
        self._checks_done = 0
        self._published_rates = np.zeros(self.num_regions)
        self._next_check_ns = sample_interval_s * 1e9

    def _resample(self) -> np.ndarray:
        """Pick a fresh representative page per region."""
        spans = (self._ends - self._starts).astype(np.float64)
        offsets = (self._rng.random(self.num_regions) * spans).astype(np.int64)
        return self._starts + offsets

    # ------------------------------------------------------------------
    def observe(self, view) -> float:
        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns < self._next_check_ns:
            return 0.0
        # One check per epoch, however many sample intervals elapsed: the
        # simulator's accesses arrive in epoch batches, so a second check
        # within one epoch would read freshly cleared bits and dilute the
        # access rates.
        self._next_check_ns = now_ns + self.sample_interval_s * 1e9
        page_table = view.page_table
        accessed_mask = (page_table.flags[self._sample_pages] & 1) != 0
        self._check_hits += accessed_mask
        page_table.clear_accessed(self._sample_pages)
        self._checks_done += 1
        if self._checks_done >= self.aggregation_checks:
            self._published_rates = self._check_hits / self._checks_done
            self._check_hits = np.zeros(self.num_regions, dtype=np.int64)
            self._checks_done = 0
            self._sample_pages = self._resample()
        return self.num_regions * self.ns_per_check

    def hot_candidates(self) -> np.ndarray:
        """All pages of regions whose access rate crossed ``hot_rate``."""
        hot_regions = np.nonzero(self._published_rates >= self.hot_rate)[0]
        if hot_regions.size == 0:
            return np.zeros(0, dtype=np.int64)
        pieces = [np.arange(self._starts[r], self._ends[r], dtype=np.int64) for r in hot_regions]
        return np.concatenate(pieces)
