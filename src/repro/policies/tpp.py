"""TPP baseline (Maruf et al., ASPLOS 2023).

Transparent Page Placement enhances hint-fault monitoring with:

* **two-consecutive-fault promotion**: a slow page is promoted only
  when it faults twice within a short re-fault window, filtering one-off
  touches (the paper: "TPP exhibits the fewest migration counts in most
  cases, as it promotes pages only after two consecutive hint-faults");
* **proactive demotion watermarks**: kswapd-style reclaim keeps a free
  headroom on the fast node so promotions never stall on allocation.

In THP mode (``thp=True``, Table VI) the base class coalesces the
candidates: a huge page with two faulting base pages moves whole.
TPP's low time-resolution rarely produces two co-located fault pairs
inside one 2 MB page, so most migrations stay base-sized — the
behaviour Table VI reports.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.policies.base import BaseTieringPolicy
from repro.profilers.hint_fault import HintFaultProfiler


class TppPolicy(BaseTieringPolicy):
    """Two-consecutive-hint-fault promotion with aggressive watermarks."""

    name = "tpp"

    def __init__(
        self,
        num_pages: int,
        scan_interval_s: float = 1.0,
        scan_window_pages: int = 8192,
        refault_epoch_gap: int = 16,
        seed: int = 31,
        thp: bool = False,
        **kwargs,
    ) -> None:
        kwargs.setdefault("demotion_watermark", 0.02)
        kwargs.setdefault("demotion_target", 0.05)
        super().__init__(**kwargs)
        self.refault_epoch_gap = int(refault_epoch_gap)
        self.thp = bool(thp)
        if thp:
            self.name = "tpp-thp"
        self.profiler = HintFaultProfiler(
            num_pages,
            scan_window_pages=scan_window_pages,
            scan_interval_s=scan_interval_s,
            slow_only=True,
        )
        self._rng = np.random.default_rng(seed)

    def _select_promotions(self, view) -> np.ndarray:
        candidates = self.profiler.consecutive_fault_pages(self.refault_epoch_gap)
        if candidates.size == 0:
            return candidates
        on_slow = view.page_table.nodes_of(candidates) > FAST_NODE
        candidates = candidates[on_slow]
        # consume the fault pair so the page must re-qualify
        self.profiler.prev_fault_epoch[candidates] = -1
        self.profiler.fault_count[candidates] = 0
        # promotions go in fault order, not hotness order
        self._rng.shuffle(candidates)
        return candidates
