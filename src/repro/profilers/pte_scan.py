"""PTE-scan profiling (Sec. II-C, Challenge #1).

A daemon thread periodically clears every Accessed bit, waits, and
rescans the page table to see which pages were touched.  Properties the
model reproduces:

* **one access per epoch**: a page touched once and a page touched ten
  thousand times look identical within a scan epoch, so hotness needs
  multiple epochs to build confidence;
* **cost linear in resident pages**: every scan walks the whole PTE
  range (and the clear pass flushes TLBs), so fine time resolution is
  expensive (Fig. 4-(a));
* **TLB-level visibility**: the accessed bit says nothing about whether
  the accesses hit in cache (Challenge #2) — the bits come from
  :class:`~repro.memsim.page_table.PageTable`, which the engine sets for
  *every* touched page, cached or not.
"""

from __future__ import annotations

import numpy as np

from repro.profilers.base import Profiler


class PteScanProfiler(Profiler):
    """Epoch-based accessed-bit scanning.

    Args:
        num_pages: Resident-set size being scanned.
        scan_interval_s: Time between scans (Table V: seconds-scale).
        ns_per_pte: Cost to test-and-clear one PTE, including the
            amortized TLB-flush cost of the clear pass.
        hot_epochs: Number of scan epochs (out of the last
            ``window_epochs``) a page must appear in to be considered
            hot.
        window_epochs: Sliding-window length for epoch counting.
    """

    name = "pte-scan"

    def __init__(
        self,
        num_pages: int,
        scan_interval_s: float = 5.0,
        ns_per_pte: float = 25.0,
        hot_epochs: int = 2,
        window_epochs: int = 4,
    ) -> None:
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        if scan_interval_s <= 0:
            raise ValueError("scan interval must be positive")
        if not 1 <= hot_epochs <= window_epochs:
            raise ValueError("need 1 <= hot_epochs <= window_epochs")
        self.num_pages = int(num_pages)
        self.scan_interval_s = float(scan_interval_s)
        self.ns_per_pte = float(ns_per_pte)
        self.hot_epochs = int(hot_epochs)
        self.window_epochs = int(window_epochs)
        self._history: list[np.ndarray] = []
        self._next_scan_ns = scan_interval_s * 1e9
        self.scans_completed = 0

    # ------------------------------------------------------------------
    def observe(self, view) -> float:
        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns < self._next_scan_ns:
            return 0.0
        self._next_scan_ns = now_ns + self.scan_interval_s * 1e9
        page_table = view.page_table
        accessed = page_table.accessed_pages()
        bitmap = np.zeros(self.num_pages, dtype=np.int8)
        bitmap[accessed] = 1
        self._history.append(bitmap)
        if len(self._history) > self.window_epochs:
            self._history.pop(0)
        page_table.clear_accessed_all()
        self.scans_completed += 1
        # Full PTE walk twice (read pass + clear pass share the walk here)
        return self.num_pages * self.ns_per_pte

    def hot_candidates(self) -> np.ndarray:
        if not self._history:
            return np.zeros(0, dtype=np.int64)
        window = np.sum(self._history, axis=0)
        return np.nonzero(window >= self.hot_epochs)[0].astype(np.int64)
