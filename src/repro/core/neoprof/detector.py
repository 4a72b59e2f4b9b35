"""Hot-page detector: sketch + hot-page filter + hot-page buffer (Fig. 7/8).

The detector adds per-page request counts to the Count-Min sketch,
flags pages whose estimated count exceeds the threshold ``theta``
(Eq. 4), suppresses duplicate reports through the hot bits, and queues
new hot pages in a bounded FIFO the host drains with ``GetHotPage``.
A full buffer drops reports (and counts the drops), exactly like the
16K-entry hardware FIFO.
"""

from __future__ import annotations

import numpy as np

from repro.core.neoprof.sketch import CountMinSketch


class HotPageDetector:
    """Streaming hot-page detection with dedup filtering.

    Args:
        sketch: The backing Count-Min sketch.
        threshold: Initial hotness threshold theta.
        buffer_entries: Hot-page FIFO capacity (Table IV: 16K).
        dedup_filter: Suppress repeat reports through the hot bits
            (Fig. 7's hot-page filter); ``False`` reports a page every
            batch its estimate exceeds the threshold (an ablation).
    """

    def __init__(
        self,
        sketch: CountMinSketch | None = None,
        threshold: int = 64,
        buffer_entries: int = 16 * 1024,
        dedup_filter: bool = True,
    ) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if buffer_entries <= 0:
            raise ValueError("buffer must hold at least one entry")
        self.sketch = sketch or CountMinSketch()
        self.threshold = int(threshold)
        self.buffer_entries = int(buffer_entries)
        #: ablation switch for the Fig. 7 hot-bit filter
        self.dedup_filter = bool(dedup_filter)
        #: the hot-page FIFO, oldest report first
        self._fifo = np.zeros(0, dtype=np.int64)
        self.dropped_reports = 0
        self.detected_total = 0

    # ------------------------------------------------------------------
    def set_threshold(self, threshold: int) -> None:
        """Host command ``SetThreshold``."""
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = int(threshold)

    # ------------------------------------------------------------------
    def observe(self, pages: np.ndarray, counts: np.ndarray) -> int:
        """Stream one batch, ``counts[i]`` requests to each distinct
        ``pages[i]``, through the pipeline; return how many *new* hot
        pages it queued.  The hardware evaluates Eq. 4 per request; the
        counters only add, so at epoch granularity the equivalent is to
        add each page's count, then test each page of the batch.
        """
        pages = np.asarray(pages)
        if pages.size == 0:
            return 0
        # One pass of the H3 units feeds the whole pipeline: look the
        # pages' entries up once, fold their counts into the update, and
        # reuse the entries for the estimate and both hot-bit ops.
        flat = self.sketch.entries(pages)
        estimates = self.sketch.update_estimate_batch(pages, counts=counts, flat=flat)
        # batch positions of the hot pages, selected once with take
        hot = (estimates > self.threshold).nonzero()[0]
        if hot.size == 0:
            return 0
        fresh = pages.take(hot)
        hot_flat = flat.take(hot, axis=1)
        # Hot-page filter: drop pages whose hot bits are all already set.
        if self.dedup_filter:
            keep = (~self.sketch.hot_bits_all_set(fresh, flat=hot_flat)).nonzero()[0]
            if keep.size == 0:
                return 0
            if keep.size < hot.size:
                fresh = fresh.take(keep)
                hot_flat = hot_flat.take(keep, axis=1)
            self.sketch.set_hot_bits(fresh, flat=hot_flat)
        room = self.buffer_entries - self._fifo.size
        queued = min(fresh.size, max(room, 0))
        if queued < fresh.size:
            self.dropped_reports += fresh.size - queued
        if queued:
            # cast first: int64 joined with uint64 would give float64
            self._fifo = np.concatenate((self._fifo, fresh[:queued].astype(np.int64)))
        self.detected_total += queued
        return queued

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Host command ``GetNrHotPage``."""
        return self._fifo.size

    def drain(self, max_pages: int | None = None) -> np.ndarray:
        """Pop up to ``max_pages`` queued hot pages (``GetHotPage`` loop)."""
        count = self.pending if max_pages is None else min(max(max_pages, 0), self.pending)
        out, self._fifo = self._fifo[:count], self._fifo[count:]
        return out

    def clear(self) -> None:
        """Host command ``Reset``: counters, hot bits and buffer."""
        self.sketch.clear()
        self._fifo = np.zeros(0, dtype=np.int64)
        self.dropped_reports = 0
