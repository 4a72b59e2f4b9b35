"""Count-Min Sketch with hot and valid bits (Fig. 7 of the paper).

Each of the ``D x W`` entries holds a saturating counter, a *hot bit*
(the in-sketch bloom filter that deduplicates hot-page reports) and a
*valid bit*.  The hardware's ``Reset`` clears the valid bits in bulk
instead of rewriting the counter SRAM, and an invalid entry reads as
zero.  The model keeps the counters and hot bits as plain arrays and
zero-fills them on :meth:`CountMinSketch.clear`: every read sees the
same values as through valid bits, so no operation pays for a validity
check.  :attr:`CountMinSketch.sram_bits` still counts the valid bit,
because it models Table IV's storage.

A sketch told its page space (the pages ``0 .. num_pages - 1`` a
profiled machine can address) hashes that space once into a slot
table: per lane and page, the compact id of the entry the page hashes
to.  It then keeps counters and hot bits only for the entries some page
reaches; every other entry reads as zero forever, as it would in the
full geometry.  Colliding pages still share an entry, so estimates, hot
bits and histograms are those of the full ``D x W`` sketch.

Guarantees (Cormode & Muthukrishnan):  with ``W = ceil(2/eps)`` and
``D = ceil(log2(1/delta))``, the estimate ``a_hat`` satisfies
``a <= a_hat <= a + eps*N`` with probability ``1 - delta``.
"""

# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

import numpy as np

from repro.core.neoprof.h3 import H3HashFamily

#: slot tables shared across sketches: a table is a pure function of the
#: hash family and the page space, and a sweep builds one sketch per job
#: over a handful of page spaces.  Values are read-only.
_SLOT_TABLES: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
_SLOT_TABLES_MAX = 8


def _slot_table(hashes: H3HashFamily, num_pages: int) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, lane_starts)`` of a page space.

    The reachable entries are numbered in ``lane * width + column``
    order: ``slots[lane, page]`` is the number of the entry ``page``
    hashes to, and lane ``l`` owns the numbers ``lane_starts[l] ..
    lane_starts[l + 1] - 1``.
    """
    key = (hashes.input_bits, hashes.width, hashes.num_hashes, hashes.seed, num_pages)
    table = _SLOT_TABLES.get(key)
    if table is None:
        width, depth = hashes.width, hashes.num_hashes
        cols = hashes.hash_batch(np.arange(num_pages, dtype=np.uint64)).astype(np.int64)
        flat = cols + (np.arange(depth, dtype=np.int64) * width)[:, None]
        reached, slots = np.unique(flat.reshape(-1), return_inverse=True)
        table = (
            slots.reshape(depth, num_pages).astype(np.int32),
            np.searchsorted(reached, np.arange(depth + 1, dtype=np.int64) * width),
        )
        for array in table:
            array.setflags(write=False)
        while len(_SLOT_TABLES) >= _SLOT_TABLES_MAX:
            _SLOT_TABLES.pop(next(iter(_SLOT_TABLES)))
        _SLOT_TABLES[key] = table
    return table


class CountMinSketch:
    """Hardware-faithful CM sketch over page addresses.

    Every batch operation takes an optional ``flat``: the page batch's
    entry indices from :meth:`entries`, so a caller that hashes a batch
    once can thread the result through all of them.

    Args:
        width: Columns per lane (W; Table IV default 512K).
        depth: Lanes (D; Table IV default 2).
        counter_bits: Saturating counter width (Table IV: 16).
        addr_bits: Input page-address bits (Table IV: 32).
        seed: Hash-seed RNG seed.
        num_pages: The page space, if bounded: pages are then read
            from a slot table instead of hashed, and a page at or
            beyond it raises.  ``None`` hashes every batch.
    """

    def __init__(
        self,
        width: int = 512 * 1024,
        depth: int = 2,
        counter_bits: int = 16,
        addr_bits: int = 32,
        seed: int = 0xC0FFEE,
        num_pages: int | None = None,
    ) -> None:
        if width <= 0 or width & (width - 1):
            raise ValueError("sketch width must be a power of two")
        if depth <= 0:
            raise ValueError("sketch depth must be positive")
        if not 1 <= counter_bits <= 32:
            raise ValueError("counter_bits must be in 1..32")
        if num_pages is not None and num_pages <= 0:
            raise ValueError("the page space must hold at least one page")
        self.width = int(width)
        self.depth = int(depth)
        self.counter_bits = int(counter_bits)
        self.counter_max = (1 << counter_bits) - 1
        self.hashes = H3HashFamily(addr_bits, width, depth, seed)
        self.num_pages = None if num_pages is None else int(num_pages)
        if self.num_pages is None:
            # every entry, numbered lane * width + column
            self._slots = None
            self._lane_starts = np.arange(depth + 1, dtype=np.int64) * width
        else:
            self._slots, self._lane_starts = _slot_table(self.hashes, self.num_pages)
        # lane offsets for hashed entry numbers; int32 when the entry
        # space fits — every gather and scatter runs measurably faster on
        # the narrower type
        self._flat_dtype = np.int32 if depth * width <= np.iinfo(np.int32).max else np.int64
        self._lane_offsets = (np.arange(depth, dtype=self._flat_dtype) * width)[:, None]
        entries = int(self._lane_starts[-1])
        # int64, so a scatter-add into a saturated 32-bit counter cannot wrap
        self._counters = np.zeros(entries, dtype=np.int64)
        self._hot = np.zeros(entries, dtype=bool)
        self.total_updates = 0

    # ------------------------------------------------------------------
    def entries(self, pages: np.ndarray) -> np.ndarray:
        """Entry numbers ``(depth, n)`` of ``pages``.

        The detector pipeline looks a batch up exactly once and passes
        the result to the update, estimate and hot-bit calls, matching
        the hardware where one H3 unit feeds every downstream consumer.
        With a page space the lookup is one gather from the slot table.
        """
        if self._slots is None:
            cols = self.hashes.hash_batch(np.asarray(pages, dtype=np.uint64))
            return cols.astype(self._flat_dtype) + self._lane_offsets
        pages = np.asarray(pages)
        if pages.size and (pages.min() < 0 or pages.max() >= self.num_pages):
            bad = pages.min() if pages.min() < 0 else pages.max()
            raise ValueError(f"page {bad} outside the sketch's page space [0, {self.num_pages})")
        return self._slots.take(pages, axis=1)

    def _add(
        self, pages: np.ndarray, counts: np.ndarray | None, flat: np.ndarray | None
    ) -> np.ndarray:
        """Stream ``pages`` into the counters (Eq. 1); return the clamped
        counters ``(depth, n)`` of every hashed position.

        One unbuffered scatter-add sums repeated entries, and every copy
        of an entry then clamps to the same value.  Clamping once after
        the sum equals clamping after each request, because
        ``min(min(a + x, M) + y, M) == min(a + x + y, M)`` for
        non-negative ``x`` and ``y``.
        """
        if flat is None:
            flat = self.entries(pages)
        if counts is None:
            counts = np.ones(flat.shape[1], dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != flat.shape[1:]:
            raise ValueError("counts must match pages")
        self.total_updates += int(counts.sum())
        counters = self._counters
        # a flat index with repeated values: a 2-D index with 1-D values
        # misreads memory in numpy 2.4's np.add.at
        np.add.at(counters, flat.reshape(-1), np.concatenate((counts,) * self.depth))
        values = counters.take(flat)
        # only a saturated entry needs its clamped value written back
        if values.max(initial=0) > self.counter_max:
            np.minimum(values, self.counter_max, out=values)
            counters.put(flat, values)
        return values

    def update_batch(
        self,
        pages: np.ndarray,
        *,
        counts: np.ndarray | None = None,
        flat: np.ndarray | None = None,
    ) -> None:
        """Stream a batch of page addresses into the sketch (Eq. 1).

        ``counts`` folds pre-aggregated per-page multiplicities in (the
        detector passes the distinct pages of an epoch with their counts
        — the resulting counters are identical to streaming every
        request).  Counters saturate at ``counter_max``.
        """
        self._add(pages, counts, flat)

    def update_estimate_batch(
        self,
        pages: np.ndarray,
        *,
        counts: np.ndarray | None = None,
        flat: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused :meth:`update_batch` + :meth:`estimate_batch`.

        Every entry a page hashes to was just written by the update, so
        the post-update estimate is the lane-wise min of the freshly
        clamped counters — no second counter gather.  Bit-identical to
        calling the two methods in sequence.
        """
        return self._add(pages, counts, flat).min(axis=0)

    def estimate_batch(self, pages: np.ndarray, *, flat: np.ndarray | None = None) -> np.ndarray:
        """Estimated access count per page (Eq. 2: min across lanes)."""
        if flat is None:
            flat = self.entries(pages)
        return self._counters.take(flat).min(axis=0)

    def estimate(self, page: int) -> int:
        """Estimated access count of a single page."""
        return int(self.estimate_batch(np.array([page], dtype=np.uint64))[0])

    # ------------------------------------------------------------------
    # hot bits (the dedup bloom filter of Fig. 7)
    # ------------------------------------------------------------------
    def hot_bits_all_set(self, pages: np.ndarray, *, flat: np.ndarray | None = None) -> np.ndarray:
        """True per page if every hashed entry's hot bit is already set."""
        if flat is None:
            flat = self.entries(pages)
        return self._hot.take(flat).all(axis=0)

    def set_hot_bits(self, pages: np.ndarray, *, flat: np.ndarray | None = None) -> None:
        """Set the hot bit in every entry hashed by ``pages``."""
        if flat is None:
            flat = self.entries(pages)
        # duplicate entries are harmless: the scatter is idempotent
        self._hot[flat] = True

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Host command ``Reset``: every counter and hot bit reads as zero."""
        self._counters.fill(0)
        self._hot.fill(False)
        self.total_updates = 0

    def _lane(self, lane: int) -> slice:
        """The numbers of one lane's kept entries, in column order."""
        return slice(self._lane_starts[lane], self._lane_starts[lane + 1])

    def lane_snapshot(self, lane: int = 0) -> np.ndarray:
        """Copy of one lane's ``width`` counters (int64)."""
        if self._slots is None:
            return self._counters[self._lane(lane)].copy()
        # every kept entry is some page's: each page's column reads its slot
        row = np.zeros(self.width, dtype=np.int64)
        columns = self.hashes.hash_batch(np.arange(self.num_pages, dtype=np.uint64))[lane]
        row[columns] = self._counters[self._slots[lane]]
        return row

    def lane_valid_counters(self, lane: int = 0) -> np.ndarray:
        """The lane's non-zero counters, in entry order.

        Every other entry is zero, so a histogram of these values plus
        ``width - count`` implicit zeros equals a histogram of the full
        :meth:`lane_snapshot` row (see ``HistogramUnit.compute_sparse``).
        ``np.compress`` selects them in one dense pass over the kept
        counters, 2-5x faster than boolean-mask indexing.
        """
        row = self._counters[self._lane(lane)]
        return np.compress(row > 0, row)

    @property
    def sram_bits(self) -> int:
        """Storage cost in bits (counter + hot + valid per entry)."""
        return self.depth * self.width * (self.counter_bits + 2)
