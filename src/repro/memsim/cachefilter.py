"""Fast page-granularity LLC filter for end-to-end simulations.

The end-to-end experiments stream tens of millions of accesses, far too
many for a per-access exact cache model in Python.  What tiering actually
needs from the cache model is the property the paper highlights for goal
G3 (*cache awareness*): the subset of accesses that miss the LLC and
therefore reach memory.  At page granularity an LLC behaves like a small
fully-associative page cache — pages with short reuse distances are
filtered out, pages touched rarely (or streamed through) miss.

:class:`PageCacheFilter` models this with a vectorized CLOCK-style
approximation: it keeps per-page *residency credit* that is charged on
access and decayed as the working set overflows the cache capacity.  An
access to a page with positive credit is a hit.  The model reproduces the
two behaviours the paper's results depend on:

* a hot set smaller than the LLC generates almost no memory traffic
  (why migrating always-cached pages is useless — Challenge #2), and
* a working set much larger than the LLC misses at a rate that grows
  with the reuse distance, so slow-tier placement of hot pages hurts.

The filter is intentionally deterministic given its inputs so property
tests can pin its invariants.
"""

# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

import numpy as np


def _evict_residue(credit: np.ndarray) -> None:
    """Zero sub-line residue (credit under half a line), which behaves as
    evicted, in one in-place sweep.  Credit is finite and non-negative, so
    each product is the credit itself or +0.0, as the mask assignment
    ``credit[credit < 0.5] = 0`` gives."""
    credit *= credit >= 0.5


class PageCacheFilter:
    """Approximate LLC filter operating on page-number batches.

    Args:
        capacity_pages: LLC capacity expressed in 4 KB pages (a 60 MB LLC
            holds 15360 pages).
        lines_per_page: How many distinct cache lines one page occupies
            when fully resident (64 lines for 4 KB pages / 64 B lines).
            Controls how quickly repeated access saturates residency.
        max_page_id: Upper bound (exclusive) on page numbers; sizes the
            internal credit arrays.
    """

    def __init__(self, capacity_pages: int, max_page_id: int, lines_per_page: int = 64) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        if max_page_id <= 0:
            raise ValueError("max_page_id must be positive")
        if lines_per_page <= 0:
            raise ValueError("lines_per_page must be positive")
        self.capacity_pages = int(capacity_pages)
        self.max_page_id = int(max_page_id)
        self.lines_per_page = int(lines_per_page)
        # Residency credit per page, in "lines held".  Sum of credit over
        # all pages is bounded by capacity_pages * lines_per_page.
        self._credit = np.zeros(self.max_page_id, dtype=np.float32)
        self._capacity_lines = float(self.capacity_pages * self.lines_per_page)

    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> float:
        """Total residency credit currently held (in cache lines)."""
        return float(self._credit.sum())

    def residency_of(self, page: int) -> float:
        """Residency credit of one page, in lines (0 means uncached)."""
        return float(self._credit[page])

    # ------------------------------------------------------------------
    def filter_batch(
        self, pages: np.ndarray, distinct: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Process one epoch; return its LLC-miss mask and each distinct page's misses.

        Pages are processed as an unordered epoch: hits are granted
        against existing residency credit by per-page access count, and
        residency is refreshed for the pages touched this epoch.
        Pressure beyond capacity decays every page's credit
        proportionally, evicting the long-idle pages first in expectation.

        ``distinct`` and ``counts`` are the batch's sorted distinct pages
        and their access counts, as
        :func:`~repro.memsim.pageset.distinct_counts` returns them (the
        engine reuses them as its touched set).
        """
        pages = np.asarray(pages)  # any integer dtype indexes ``by_page``
        if distinct.size == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        if distinct[0] < 0 or distinct[-1] >= self.max_page_id:
            raise ValueError("page number out of range for the cache filter")

        # Miss budget per page.  After the first touch of each line a page
        # is resident, so of c accesses at most min(c, lines) miss; a page
        # holding `credit` lines misses on the uncovered fraction of those
        # first touches: all of them when cold, none when fully resident.
        # (float32 fraction, float64 product: reports depend on the dtypes.)
        lines = self.lines_per_page
        credit = self._credit[distinct]
        budget = np.minimum(counts, lines)
        budget = np.ceil(budget * (1.0 - credit / lines)).astype(np.int64)

        # Most pages are all-or-nothing in any given epoch: every access
        # misses (budget >= count) or none does (budget == 0).  One gather
        # of a per-page class marks those; a page with a partial budget
        # misses on its first `budget` occurrences in batch order, so only
        # accesses to those pages are ranked.  Classes: 0 no miss, 1 all
        # miss, 2 + k the k-th partial page.
        page_class = (budget >= counts).astype(np.int32)
        partial = np.flatnonzero((budget > 0) & (budget < counts))
        page_class[partial] = np.arange(2, partial.size + 2, dtype=np.int32)
        # page-indexed, so `pages` gathers it; entries off the batch are never read
        by_page = np.empty(self.max_page_id, dtype=np.int32)
        by_page[distinct] = page_class
        miss_class = by_page[pages]
        miss_mask = miss_class == 1
        if partial.size:
            sel = np.flatnonzero(miss_class > 1)
            key = miss_class[sel]
            if partial.size + 2 <= 1 << 16:
                # numpy's stable sort is an O(n) radix sort for 16-bit
                # ints but a comparison sort for wider types
                key = key.astype(np.uint16)
            order = np.argsort(key, kind="stable")
            # sorted by page, partial page k holds positions
            # [start_k, start_k + count_k) and misses on the first budget_k
            sub_counts = counts[partial]
            miss_ends = np.cumsum(sub_counts) - sub_counts + budget[partial]
            miss_mask[sel[order]] = np.arange(sel.size) < np.repeat(miss_ends, sub_counts)

        # Refresh residency: touched pages become (close to) fully resident.
        self._credit[distinct] = np.minimum(credit + counts.astype(np.float32), np.float32(lines))

        # Capacity pressure: decay everything proportionally to overflow.
        # The sum spans the whole page space: its pairwise summation order
        # is part of the reports' bit-identity.
        total = float(self._credit.sum())
        if total > self._capacity_lines:
            self._credit *= np.float32(self._capacity_lines / total)
            _evict_residue(self._credit)

        return miss_mask, np.minimum(budget, counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageCacheFilter(capacity={self.capacity_pages} pages, "
            f"resident={self.resident_lines / self.lines_per_page:.0f} pages)"
        )
