"""AutoNUMA baseline (Linux kernel 6.3 NUMA balancing with tiering).

AutoNUMA poisons PTEs on a scan cadence and promotes a slow-tier page
once its hint-fault count reaches a configurable hotness threshold
(the kernel's ``numa_balancing_promote_rate_limit`` era behaviour the
paper describes: "blends part of TPP's features and introduces
configurable hotness threshold").

Compared to TPP it promotes more eagerly — any page that faults
``hot_threshold`` times ever, rather than twice in quick succession —
which is why its promotion counts in Fig. 13 run far above NeoMem's.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.policies.base import BaseTieringPolicy
from repro.profilers.hint_fault import HintFaultProfiler


class AutoNumaPolicy(BaseTieringPolicy):
    """Hint-fault promotion with a fault-count threshold."""

    name = "autonuma"

    def __init__(
        self,
        num_pages: int,
        scan_interval_s: float = 1.0,
        scan_window_pages: int = 8192,
        hot_threshold: int = 1,
        seed: int = 29,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be at least 1")
        self.hot_threshold = int(hot_threshold)
        self.profiler = HintFaultProfiler(
            num_pages,
            scan_window_pages=scan_window_pages,
            scan_interval_s=scan_interval_s,
            slow_only=True,
        )
        self._rng = np.random.default_rng(seed)

    def _select_promotions(self, view) -> np.ndarray:
        counts = self.profiler.fault_count
        candidates = (counts >= self.hot_threshold).nonzero()[0].astype(np.int64)
        if candidates.size == 0:
            return candidates
        on_slow = view.page_table.nodes_of(candidates) > FAST_NODE
        candidates = candidates[on_slow]
        # fault history is consumed by promotion (kernel clears it)
        self.profiler.fault_count[candidates] = 0
        # promotions go in fault order, not hotness order
        self._rng.shuffle(candidates)
        return candidates
