"""Tests for the distinct-pages kernel against its ``np.unique`` formulations."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.memsim.pageset import distinct_counts, first_occurrence


@st.composite
def id_batches(draw):
    """Page ids of one dtype, on either side of the density rule: a
    batch counts by bincount when its largest id is below 4 * size."""
    dtype = draw(st.sampled_from([np.int64, np.uint64, np.int32]))
    size = draw(st.integers(min_value=0, max_value=64))
    if draw(st.booleans()):
        ids = draw(st.lists(st.integers(0, max(4 * size - 1, 0)), min_size=size, max_size=size))
    else:
        ids = draw(st.lists(st.integers(0, 4 * size + 10_000), min_size=size, max_size=size))
        if ids:
            ids[draw(st.integers(0, size - 1))] = draw(st.integers(4 * size, 4 * size + 10_000))
    return np.array(ids, dtype=dtype)


EMPTY = np.zeros(0, dtype=np.uint64)
SINGLE = np.array([7], dtype=np.int32)


class TestDistinctCounts:
    @given(id_batches())
    @example(EMPTY)
    @example(SINGLE)
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, ids):
        distinct, counts = distinct_counts(ids)
        want_distinct, want_counts = np.unique(ids, return_counts=True)
        np.testing.assert_array_equal(distinct, want_distinct)
        np.testing.assert_array_equal(counts, want_counts)
        assert distinct.dtype == want_distinct.dtype == ids.dtype
        assert counts.dtype == want_counts.dtype


class TestFirstOccurrence:
    @given(id_batches())
    @example(EMPTY)
    @example(SINGLE)
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_first_index(self, ids):
        bound = int(ids.max()) + 1 if ids.size else 1
        got = first_occurrence(ids, bound)
        want = ids[np.sort(np.unique(ids, return_index=True)[1])]
        np.testing.assert_array_equal(got, want)
        assert got.dtype == ids.dtype

    def test_distinct_input_comes_back_unchanged(self):
        ids = np.array([4, 0, 9, 2], dtype=np.int64)
        assert first_occurrence(ids, 10) is ids
