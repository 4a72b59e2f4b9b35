"""LookAhead placement for the KV-cache workload.

The fangyunh Data-Placement-Optimization simulator's strongest strategy
is LookAhead: during autoregressive decode the *next* step's read set is
known exactly — the attended past tokens' KV blocks for every layer —
so blocks can be staged into fast memory *before* they are needed
instead of after a profiler notices them.  No reactive baseline
(TPP / Memtis / NeoProf) can beat an oracle on traffic this structured;
the point of the comparison is to measure how far reactive profiling
lands from the achievable ceiling.

This port shares :class:`~repro.workloads.kvcache.KVGeometry` with
:class:`~repro.workloads.kvcache.KVCacheWorkload` — prediction and trace
generation are the same pure function of the decode-step index, so the
"known future" is exact by construction, not by heuristic.  Each epoch
is one decode step; at epoch ``e`` the policy promotes the read sets of
steps ``e+1 .. e+lookahead_steps``, nearest step first and hottest
blocks first within a step, so the base class's quota/headroom clamping
(which takes a prefix) drops the least valuable prefetches first.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.memsim.pageset import first_occurrence
from repro.policies.base import BaseTieringPolicy
from repro.workloads.kvcache import KVGeometry


class LookAheadPolicy(BaseTieringPolicy):
    """Oracle prefetch over the KV-cache's known autoregressive future.

    Args:
        num_pages: Workload RSS in pages; with the geometry kwargs below
            it must match the :class:`KVCacheWorkload` being run — the
            policy rebuilds the same :class:`KVGeometry` from them.
        num_layers / num_seqs / prompt_fraction / recent_window /
            skip_level: Geometry knobs, same defaults as the workload.
        lookahead_steps: How many future decode steps to stage.
    """

    name = "lookahead"

    def __init__(
        self,
        num_pages: int,
        num_layers: int = 8,
        num_seqs: int = 4,
        prompt_fraction: float = 0.25,
        recent_window: int = 16,
        skip_level: int = 4,
        lookahead_steps: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if lookahead_steps < 1:
            raise ValueError("must look at least one step ahead")
        self.geometry = KVGeometry.derive(
            num_pages, num_layers, num_seqs, prompt_fraction, recent_window, skip_level
        )
        self.lookahead_steps = int(lookahead_steps)

    def _select_promotions(self, view) -> np.ndarray:
        """Slow-resident blocks of the next ``lookahead_steps`` read sets,
        in placement-priority order (nearest step, then hottest token)."""
        horizon = [
            self.geometry.read_pages(view.epoch + ahead)
            for ahead in range(1, self.lookahead_steps + 1)
        ]
        # the nearest-step copy of each block wins
        wanted = first_occurrence(np.concatenate(horizon), view.page_table.num_pages)
        # only blocks currently on slow nodes need staging
        on_slow = view.page_table.nodes_of(wanted) > FAST_NODE
        return wanted[on_slow]
