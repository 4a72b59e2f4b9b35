"""PEBS tiering baseline ("PEBS" in Figs. 11/12/13).

The paper builds this baseline by swapping NeoMem's profiling for PMU
sampling: pages whose (decayed) LLC-miss sample count reaches
``min_samples`` are promoted on the migration cadence.  The sampling
interval is the resolution/overhead knob of Fig. 4-(c); the Table V
default range is 200-5000 misses per sample.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.policies.base import BaseTieringPolicy
from repro.profilers.pebs import PebsProfiler


class PebsPolicy(BaseTieringPolicy):
    """Promote pages whose PEBS sample count crosses a small threshold."""

    name = "pebs"

    def __init__(
        self,
        num_pages: int,
        sample_interval: int = 397,
        min_samples: float = 2.0,
        decay_interval_s: float = 2.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if min_samples <= 0:
            raise ValueError("min_samples must be positive")
        self.min_samples = float(min_samples)
        self.profiler = PebsProfiler(
            num_pages, sample_interval=sample_interval, decay_interval_s=decay_interval_s
        )
        self.current_threshold = self.min_samples * sample_interval

    def _select_promotions(self, view) -> np.ndarray:
        candidates = self.profiler.hot_candidates(self.min_samples)
        if candidates.size == 0:
            return candidates
        on_slow = view.page_table.nodes_of(candidates) > FAST_NODE
        candidates = candidates[on_slow]
        # samples are consumed by promotion; the page must re-qualify
        self.profiler.sample_count[candidates] = 0.0
        return candidates
