"""PMU (PEBS) sampling profiler (Sec. II-C, Challenge #3).

Intel PEBS samples every k-th LLC miss into a memory buffer; a full
buffer raises an interrupt and the kernel digests the records.  The
model reproduces the technique's trade-off:

* it *does* see true LLC misses (cache-aware, unlike PTE/hint-fault),
* but resolution is 1/k: with the sampling interval raised to contain
  overhead (Fig. 4-(c)), moderately hot pages receive few or no samples
  and recall collapses — the low coverage the paper measures in Fig. 13.

Cost model: every sample costs PEBS-record time; every
``buffer_entries`` samples cost an interrupt + drain pass.
"""

from __future__ import annotations

import numpy as np

from repro.profilers.base import Profiler


class PebsProfiler(Profiler):
    """Sampled LLC-miss counting.

    Args:
        num_pages: Resident-set size (sizes the count array).
        sample_interval: Take one sample every ``sample_interval`` LLC
            misses (Table V: 200-5000).
        ns_per_sample: Record cost charged per sample.
        buffer_entries: PEBS buffer capacity; each fill costs one
            interrupt.
        interrupt_ns: Cost of the drain interrupt.
        decay_interval_s: Counts are halved on this cadence so stale
            samples age out (standard practice in PEBS-based tiering).
    """

    name = "pebs"

    def __init__(
        self,
        num_pages: int,
        sample_interval: int = 397,
        ns_per_sample: float = 400.0,
        buffer_entries: int = 64,
        interrupt_ns: float = 4_000.0,
        decay_interval_s: float = 2.0,
    ) -> None:
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        if sample_interval <= 0:
            raise ValueError("sample interval must be positive")
        self.num_pages = int(num_pages)
        self.sample_interval = int(sample_interval)
        self.ns_per_sample = float(ns_per_sample)
        self.buffer_entries = int(buffer_entries)
        self.interrupt_ns = float(interrupt_ns)
        self.decay_interval_s = float(decay_interval_s)
        self.sample_count = np.zeros(self.num_pages, dtype=np.float64)
        self._phase = 0  # miss counter modulo sample_interval
        self._next_decay_ns = decay_interval_s * 1e9
        self.total_samples = 0
        self.total_interrupts = 0

    # ------------------------------------------------------------------
    def observe(self, view) -> float:
        misses = view.miss_pages
        if misses.size == 0:
            return 0.0
        # Every k-th miss is sampled; the offset carries across epochs.
        first = (self.sample_interval - self._phase) % self.sample_interval
        sampled = misses[first :: self.sample_interval]
        self._phase = (self._phase + misses.size) % self.sample_interval
        overhead = 0.0
        if sampled.size:
            np.add.at(self.sample_count, sampled, 1.0)
            self.total_samples += int(sampled.size)
            interrupts = sampled.size // self.buffer_entries
            self.total_interrupts += int(interrupts)
            overhead = sampled.size * self.ns_per_sample + interrupts * self.interrupt_ns

        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns >= self._next_decay_ns:
            self._next_decay_ns = now_ns + self.decay_interval_s * 1e9
            self.sample_count *= 0.5

        return overhead

    def hot_candidates(self, min_samples: float = 2.0) -> np.ndarray:
        """Pages with at least ``min_samples`` (possibly decayed) samples."""
        return (self.sample_count >= min_samples).nonzero()[0].astype(np.int64)
