"""PTE-scan tiering baseline ("PTE-scan" in Figs. 11/13).

The paper builds this baseline by swapping NeoMem's profiling for
periodic accessed-bit scanning: a page seen accessed in at least
``hot_epochs`` of the recent scan windows is promoted.  Because one scan
epoch captures at most one access per page, hotness confidence builds
over several seconds-long epochs — the low time resolution the paper
highlights (migration reacts at second scale, versus NeoMem's 10 ms).
"""

from __future__ import annotations

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.policies.base import BaseTieringPolicy
from repro.profilers.pte_scan import PteScanProfiler


class PteScanPolicy(BaseTieringPolicy):
    """Promote pages hot according to accessed-bit scan history."""

    name = "pte-scan"

    def __init__(
        self,
        num_pages: int,
        scan_interval_s: float = 5.0,
        hot_epochs: int = 2,
        window_epochs: int = 4,
        seed: int = 23,
        **kwargs,
    ) -> None:
        # PTE-scan can only act when a scan completes, so its effective
        # migration cadence is the scan cadence.
        kwargs.setdefault("migration_interval_s", scan_interval_s)
        super().__init__(**kwargs)
        self.profiler = PteScanProfiler(
            num_pages,
            scan_interval_s=scan_interval_s,
            hot_epochs=hot_epochs,
            window_epochs=window_epochs,
        )
        self._rng = np.random.default_rng(seed)

    def _select_promotions(self, view) -> np.ndarray:
        candidates = self.profiler.hot_candidates()
        if candidates.size == 0:
            return candidates
        # only slow-tier residents are promotable
        on_slow = view.page_table.nodes_of(candidates) > FAST_NODE
        candidates = candidates[on_slow]
        # The kernel has no per-page frequency ranking — candidates hit
        # the (quota-limited) migration path in scan order, which is
        # arbitrary relative to hotness.
        self._rng.shuffle(candidates)
        return candidates
