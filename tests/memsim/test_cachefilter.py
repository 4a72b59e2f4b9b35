"""Tests for the fast page-granularity LLC filter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim.cachefilter import PageCacheFilter, _evict_residue
from repro.memsim.pageset import distinct_counts


def filter_batch(f, batch):
    """One epoch through ``f``, with the distinct pages the engine passes;
    returns the miss mask."""
    return f.filter_batch(batch, *distinct_counts(batch))[0]


class TestBasics:
    def test_cold_pages_miss(self):
        f = PageCacheFilter(16, 100)
        misses = filter_batch(f, np.arange(10))
        assert misses.all()

    def test_hot_page_stops_missing(self):
        f = PageCacheFilter(16, 100)
        batch = np.zeros(256, dtype=np.int64)  # page 0 hammered
        first = filter_batch(f, batch)
        second = filter_batch(f, batch)
        # First epoch: at most lines_per_page misses.  Second: none.
        assert first.sum() <= 64
        assert second.sum() == 0

    def test_empty_batch(self):
        f = PageCacheFilter(16, 100)
        batch = np.array([], dtype=np.int64)
        mask, misses = f.filter_batch(batch, *distinct_counts(batch))
        assert mask.size == 0 and misses.size == 0

    def test_out_of_range_page_rejected(self):
        f = PageCacheFilter(16, 100)
        for page in (100, -1):
            batch = np.array([page])
            with pytest.raises(ValueError, match="out of range"):
                f.filter_batch(batch, *np.unique(batch, return_counts=True))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PageCacheFilter(0, 10)
        with pytest.raises(ValueError):
            PageCacheFilter(10, 0)
        # a page with no lines would never miss
        for lines in (0, -4):
            with pytest.raises(ValueError):
                PageCacheFilter(4, 100, lines_per_page=lines)


class TestCapacityPressure:
    def test_streaming_working_set_keeps_missing(self):
        """A working set 100x the LLC must keep missing (streaming)."""
        f = PageCacheFilter(capacity_pages=32, max_page_id=4096)
        rng = np.random.default_rng(0)
        miss_rates = []
        for _ in range(10):
            batch = rng.integers(0, 3200, size=4096)
            misses = filter_batch(f, batch)
            miss_rates.append(misses.mean())
        # steady state: the vast majority of accesses miss
        assert np.mean(miss_rates[3:]) > 0.7

    def test_hot_set_within_capacity_mostly_hits(self):
        """A hot set that fits in the LLC stops generating traffic."""
        f = PageCacheFilter(capacity_pages=64, max_page_id=4096)
        rng = np.random.default_rng(0)
        hot = rng.integers(0, 32, size=8192)  # 32 hot pages, dense reuse
        filter_batch(f, hot)
        steady = filter_batch(f, rng.integers(0, 32, size=8192))
        assert steady.mean() < 0.05

    def test_residency_bounded_by_capacity(self):
        f = PageCacheFilter(capacity_pages=16, max_page_id=10_000)
        rng = np.random.default_rng(1)
        for _ in range(5):
            filter_batch(f, rng.integers(0, 10_000, size=8192))
        assert f.resident_lines <= 16 * 64 * 1.0001

    def test_eviction_prefers_idle_pages(self):
        f = PageCacheFilter(capacity_pages=8, max_page_id=1000)
        hot = np.repeat(np.arange(4), 64)
        filter_batch(f, hot)
        # Flood with one-shot pages to create pressure.
        filter_batch(f, np.arange(100, 612))
        filter_batch(f, hot)  # re-touch the hot pages
        filter_batch(f, np.arange(612, 1000))
        # Hot pages should retain more residency than one-shot ones.
        hot_credit = np.mean([f.residency_of(p) for p in range(4)])
        cold_credit = np.mean([f.residency_of(p) for p in range(100, 140)])
        assert hot_credit >= cold_credit


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=499), min_size=1, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_miss_mask_shape_matches_batch(self, pages):
        f = PageCacheFilter(16, 500)
        batch = np.array(pages, dtype=np.int64)
        mask = filter_batch(f, batch)
        assert mask.shape == batch.shape
        assert mask.dtype == bool

    @given(st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_misses_never_exceed_accesses(self, pages):
        f = PageCacheFilter(4, 100)
        batch = np.array(pages, dtype=np.int64)
        assert filter_batch(f, batch).sum() <= batch.size

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_repeat_epochs_monotone_nonincreasing_misses(self, reps):
        """Re-running the identical small batch can't miss more over time."""
        f = PageCacheFilter(64, 100)
        batch = np.repeat(np.arange(8), reps)
        prev = filter_batch(f, batch).sum()
        for _ in range(3):
            cur = filter_batch(f, batch).sum()
            assert cur <= prev
            prev = cur

    def test_determinism(self):
        rng = np.random.default_rng(7)
        batch = rng.integers(0, 1000, size=2048)
        f1, f2 = PageCacheFilter(32, 1000), PageCacheFilter(32, 1000)
        assert np.array_equal(filter_batch(f1, batch), filter_batch(f2, batch))


def reference_epoch(credit, batch, capacity_pages, lines):
    """One epoch of the filter's documented rule, page by page.

    Returns the miss mask and the new credit array; ``credit`` is not
    modified.  Budgets use the filter's dtypes: float32 credit, the
    uncovered fraction in float32, the budget product in float64.
    """
    credit = credit.copy()
    budget = {}
    for page in dict.fromkeys(batch.tolist()):
        count = int((batch == page).sum())
        first = min(count, lines)
        held = credit[page]
        if held <= 0:  # cold: every first touch misses
            budget[page] = first
        elif held < lines:  # partly resident: the uncovered fraction
            uncovered = np.float32(1.0) - held / np.float32(lines)
            budget[page] = math.ceil(first * float(uncovered))
        else:  # fully resident
            budget[page] = 0
        credit[page] = min(np.float32(held + np.float32(count)), np.float32(lines))
    # the misses are each page's first occurrences in batch order
    seen = dict.fromkeys(budget, 0)
    mask = np.zeros(batch.size, dtype=bool)
    for i, page in enumerate(batch.tolist()):
        mask[i] = seen[page] < budget[page]
        seen[page] += 1
    total = float(credit.sum())
    if total > capacity_pages * lines:
        credit *= np.float32(capacity_pages * lines / total)
        credit[credit < 0.5] = 0.0
    return mask, credit


@st.composite
def filter_runs(draw):
    """A filter geometry and a few epochs over a small hot set, with
    per-page counts above ``lines_per_page`` and capacity pressure."""
    max_page_id = draw(st.sampled_from([24, 96, 6000]))  # dense to sparse
    lines = draw(st.integers(min_value=1, max_value=8))
    capacity = draw(st.integers(min_value=1, max_value=6))
    hot = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_page_id - 1),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    batches = draw(st.lists(st.lists(st.sampled_from(hot), max_size=80), min_size=1, max_size=6))
    return max_page_id, lines, capacity, [np.array(b, dtype=np.int64) for b in batches]


class TestAgainstReference:
    @given(filter_runs())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_page_reference(self, run):
        """Miss masks and credit match the scalar rule bit for bit, epoch
        after epoch, given a page-space bincount's distinct pages."""
        max_page_id, lines, capacity, batches = run
        f = PageCacheFilter(capacity, max_page_id, lines_per_page=lines)
        credit = np.zeros(max_page_id, dtype=np.float32)
        for batch in batches:
            page_counts = np.bincount(batch, minlength=max_page_id)
            distinct = np.flatnonzero(page_counts)
            mask, _ = f.filter_batch(batch, distinct, page_counts[distinct])
            if batch.size == 0:
                assert mask.size == 0
                continue
            expected, credit = reference_epoch(credit, batch, capacity, lines)
            np.testing.assert_array_equal(mask, expected)
            # bit for bit: a -0.0 credit would compare equal to 0.0
            np.testing.assert_array_equal(f._credit.view(np.uint32), credit.view(np.uint32))

    @given(filter_runs())
    @settings(max_examples=100, deadline=None)
    def test_per_page_misses_count_the_miss_mask(self, run):
        """Each distinct page's miss count is the number of its accesses
        the miss mask marks, epoch after epoch, partial budgets included."""
        max_page_id, lines, capacity, batches = run
        f = PageCacheFilter(capacity, max_page_id, lines_per_page=lines)
        for batch in batches:
            distinct, counts = distinct_counts(batch)
            mask, misses = f.filter_batch(batch, distinct, counts)
            assert misses.shape == distinct.shape
            expected = np.bincount(batch[mask], minlength=max_page_id)[distinct]
            np.testing.assert_array_equal(misses, expected)

    def test_partial_budget_rounds_up_and_misses_first(self):
        """A page holding 3 of 4 lines, touched 3 times, misses
        ceil(3 * 0.25) = 1 time: on its first occurrence."""
        f = PageCacheFilter(16, 8, lines_per_page=4)
        f._credit[5] = 3.0
        batch = np.array([5, 1, 5, 5])
        mask, misses = f.filter_batch(batch, *distinct_counts(batch))
        np.testing.assert_array_equal(mask, [True, True, False, False])
        np.testing.assert_array_equal(misses, [1, 1])  # pages 1 and 5


F32 = np.finfo(np.float32)
#: float32 credits at the eviction edge: zero, the smallest and largest
#: subnormals, the smallest normal, the float just below 0.5, 0.5 itself
#: and a fully resident page's default 64 lines
EDGE_CREDITS = np.array(
    [
        0.0,
        F32.smallest_subnormal,
        F32.smallest_normal - F32.smallest_subnormal,
        F32.smallest_normal,
        np.nextafter(np.float32(0.5), np.float32(0.0)),
        0.5,
        64.0,
    ],
    dtype=np.float32,
)


class TestEvictionSweep:
    """The sub-line eviction is one in-place multiply by the keep mask; it
    must equal the mask assignment ``credit[credit < 0.5] = 0`` bit for bit."""

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(EDGE_CREDITS.tolist()),
                st.floats(min_value=0.0, max_value=64.0, width=32),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_mask_assignment_bit_for_bit(self, values):
        credit = np.array(values, dtype=np.float32)
        expected = credit.copy()
        expected[expected < 0.5] = 0.0
        _evict_residue(credit)
        assert credit.dtype == np.float32
        np.testing.assert_array_equal(credit.view(np.uint32), expected.view(np.uint32))
        assert not np.signbit(credit).any()

    def test_edges(self):
        credit = EDGE_CREDITS.copy()
        _evict_residue(credit)
        kept = np.array([0, 0, 0, 0, 0, 0.5, 64], dtype=np.float32)
        np.testing.assert_array_equal(credit.view(np.uint32), kept.view(np.uint32))
