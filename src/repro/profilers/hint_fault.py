"""Hint-fault (NUMA-balancing) profiling — the TPP/AutoNUMA substrate.

The kernel "poisons" a rate-limited window of PTEs (``PROT_NONE``); the
next access to a poisoned page takes a minor fault that tells the OS
*this page was just touched*.  The model reproduces the technique's
defining properties:

* **immediate but sampled**: only poisoned pages report, and poisoning
  is rate-limited (the kernel scans ~256 MB per interval), so coverage
  is low (Sec. II-C);
* **expensive per event**: each report costs a page fault plus a TLB
  shootdown (microseconds), so the fault *rate* is the overhead knob;
* **TLB-level**: a cached page that never misses the LLC still faults
  once its PTE is poisoned — visibility is decoupled from true memory
  traffic (Challenge #2).
"""

from __future__ import annotations

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.profilers.base import Profiler


class HintFaultProfiler(Profiler):
    """PTE-poisoning fault monitor.

    Args:
        num_pages: Resident-set size.
        scan_window_pages: Pages poisoned per scan interval (the kernel
            default is 256 MB worth; scaled down with everything else).
        scan_interval_s: Poisoning cadence (Table V: 1-3 s for
            TPP/AutoNUMA).
        fault_cost_ns: Host cost per hint fault (fault entry + TLB
            shootdown + bookkeeping).
        slow_only: Poison only slow-tier pages (promotion-oriented
            balancing, as TPP configures it).
    """

    name = "hint-fault"

    def __init__(
        self,
        num_pages: int,
        scan_window_pages: int = 8192,
        scan_interval_s: float = 1.0,
        fault_cost_ns: float = 5_000.0,
        slow_only: bool = True,
    ) -> None:
        if num_pages <= 0 or scan_window_pages <= 0:
            raise ValueError("sizes must be positive")
        if scan_interval_s <= 0:
            raise ValueError("scan interval must be positive")
        self.num_pages = int(num_pages)
        self.scan_window_pages = int(scan_window_pages)
        self.scan_interval_s = float(scan_interval_s)
        self.fault_cost_ns = float(fault_cost_ns)
        #: PTE write + deferred shootdown per poisoned page
        self.poison_cost_ns = 120.0
        self.slow_only = bool(slow_only)
        self._scan_cursor = 0
        # first poisoning pass happens one interval in, like kernel scans
        self._next_scan_ns = self.scan_interval_s * 1e9
        self.fault_count = np.zeros(self.num_pages, dtype=np.int32)
        self.last_fault_epoch = np.full(self.num_pages, -1, dtype=np.int64)
        self.prev_fault_epoch = np.full(self.num_pages, -1, dtype=np.int64)
        self.total_faults = 0

    # ------------------------------------------------------------------
    def observe(self, view) -> float:
        page_table = view.page_table
        overhead = 0.0

        # 1. deliver faults for poisoned pages touched this epoch
        touched = view.touched_pages
        faulted = touched[page_table.poisoned_mask(touched)]
        if faulted.size:
            page_table.unpoison(faulted)
            self.prev_fault_epoch[faulted] = self.last_fault_epoch[faulted]
            self.last_fault_epoch[faulted] = view.epoch
            self.fault_count[faulted] += 1
            self.total_faults += int(faulted.size)
            overhead += faulted.size * self.fault_cost_ns

        # 2. poison the next scan window on the scan cadence
        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns >= self._next_scan_ns:
            self._next_scan_ns = now_ns + self.scan_interval_s * 1e9
            overhead += self._poison_window(page_table)

        return overhead

    def _poison_window(self, page_table) -> float:
        if self.slow_only:
            eligible = np.nonzero(page_table.node_of_page > FAST_NODE)[0]
        else:
            eligible = np.nonzero(page_table.node_of_page >= 0)[0]
        if eligible.size == 0:
            return 0.0
        # circular scan through the eligible set, kernel-style
        start = self._scan_cursor % eligible.size
        take = min(self.scan_window_pages, eligible.size)
        idx = (start + np.arange(take)) % eligible.size
        window = eligible[idx]
        self._scan_cursor = (start + take) % max(eligible.size, 1)
        page_table.poison(window)
        # poisoning itself costs a PTE write + later shootdown, much
        # cheaper per page than a fault
        return take * self.poison_cost_ns

    # ------------------------------------------------------------------
    def hot_candidates(self) -> np.ndarray:
        """Pages with at least one recorded fault (policy refines this)."""
        return np.nonzero(self.fault_count > 0)[0].astype(np.int64)

    def consecutive_fault_pages(self, max_epoch_gap: int) -> np.ndarray:
        """Pages whose last two faults were close together (TPP rule)."""
        has_two = self.prev_fault_epoch >= 0
        close = (self.last_fault_epoch - self.prev_fault_epoch) <= max_epoch_gap
        return np.nonzero(has_two & close)[0].astype(np.int64)
