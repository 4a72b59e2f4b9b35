"""Distinct page ids of a batch: the one dedupe every layer calls.

:func:`distinct_counts` returns the sorted distinct ids with their counts,
:func:`first_occurrence` the distinct ids in the order they first appear.
Each returns what its ``np.unique`` formulation returns; only speed
depends on the path it takes.
"""

# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

import numpy as np


def distinct_counts(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_counts=True)`` for non-negative integer ``ids``.

    A dense batch, whose largest id is below four times its size, counts
    in one O(n + max) bincount instead of the sort inside ``np.unique``.
    """
    if ids.size == 0 or int(ids.max()) >= 4 * ids.size:
        return np.unique(ids, return_counts=True)
    # np.bincount refuses uint64 under numpy's safe-cast rule
    full = np.bincount(ids.astype(np.int64, copy=False))
    distinct = np.flatnonzero(full)
    return distinct.astype(ids.dtype, copy=False), full[distinct]


def first_occurrence(ids: np.ndarray, bound: int) -> np.ndarray:
    """``ids[np.sort(np.unique(ids, return_index=True)[1])]`` for ids in ``[0, bound)``.

    Positions scattered back to front into a ``bound``-slot scratch leave
    each id's first position in its slot, as the last write to a repeated
    index wins.  Every slot read was written, so the scratch is not
    initialised.  Returns ``ids`` itself when nothing repeats.
    """
    if ids.size <= 1:
        return ids
    # int32 positions: batches stay far below 2**31, and the narrower
    # scratch halves the traffic of the random scatters
    positions = np.arange(ids.size, dtype=np.int32)
    slot = np.empty(bound, dtype=np.int32)
    slot[ids[::-1]] = positions[::-1]
    keep = slot[ids] == positions
    return ids if keep.all() else ids[keep]
