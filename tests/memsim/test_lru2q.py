"""Tests for the LRU-2Q active/inactive lists."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim.lru2q import Lru2Q


class TestListTransitions:
    def test_first_touch_goes_inactive(self):
        lru = Lru2Q(10)
        lru.touch(np.array([3]), epoch=0)
        assert lru.state_of(3) == "inactive"

    def test_second_touch_later_epoch_activates(self):
        lru = Lru2Q(10)
        lru.touch(np.array([3]), epoch=0)
        lru.touch(np.array([3]), epoch=1)
        assert lru.state_of(3) == "active"

    def test_same_epoch_retouch_stays_inactive(self):
        lru = Lru2Q(10)
        lru.touch(np.array([3]), epoch=0)
        lru.touch(np.array([3]), epoch=0)
        assert lru.state_of(3) == "inactive"

    def test_forget(self):
        lru = Lru2Q(10)
        lru.touch(np.array([1]), 0)
        lru.forget(np.array([1]))
        assert lru.state_of(1) == "none"

    def test_deactivate(self):
        lru = Lru2Q(10)
        lru.touch(np.array([1]), 0)
        lru.touch(np.array([1]), 1)
        lru.deactivate(np.array([1]))
        assert lru.state_of(1) == "inactive"

    def test_deactivate_ignores_untracked(self):
        lru = Lru2Q(10)
        lru.deactivate(np.array([5]))
        assert lru.state_of(5) == "none"

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Lru2Q(0)


class TestAging:
    def test_age_moves_oldest_active_to_inactive(self):
        lru = Lru2Q(100)
        # Activate 10 pages at staggered epochs.
        for epoch in range(10):
            lru.touch(np.array([epoch]), epoch)
        for epoch in range(10):
            lru.touch(np.array([epoch]), 10 + epoch)
        assert lru.active_count() == 10 and lru.inactive_count() == 0
        moved = lru.age()
        assert moved == 4  # down to 60 % of list membership
        # Oldest-stamped pages were demoted first.
        assert [lru.state_of(page) for page in range(10)] == ["inactive"] * 4 + ["active"] * 6

    def test_age_noop_when_balanced(self):
        lru = Lru2Q(10)
        lru.touch(np.arange(5), 0)
        lru.touch(np.arange(3), 1)  # 3 of 5 members active: 60 %
        assert lru.age() == 0
        assert lru.active_count() == 3


class TestColdest:
    def test_coldest_orders_by_stamp(self):
        lru = Lru2Q(10)
        lru.touch(np.array([5]), 0)
        lru.touch(np.array([6]), 1)
        lru.touch(np.array([7]), 2)
        assert lru.coldest(2).tolist() == [5, 6]

    def test_coldest_prefers_inactive(self):
        lru = Lru2Q(10)
        lru.touch(np.array([1]), 0)
        lru.touch(np.array([1]), 1)  # active, stamp 1
        lru.touch(np.array([2]), 5)  # inactive, stamp 5
        assert lru.coldest(1).tolist() == [2]

    def test_coldest_falls_back_to_active(self):
        lru = Lru2Q(10)
        lru.touch(np.array([1]), 0)
        lru.touch(np.array([1]), 1)
        picks = lru.coldest(1)
        assert picks.tolist() == [1]

    def test_coldest_zero_count(self):
        lru = Lru2Q(10)
        assert lru.coldest(0).size == 0

    def test_coldest_member_mask(self):
        lru = Lru2Q(10)
        lru.touch(np.array([1, 2]), 0)
        mask = np.zeros(10, dtype=bool)
        mask[2] = True
        assert lru.coldest(5, member_mask=mask).tolist() == [2]


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 49), st.integers(0, 20)),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_consistent(self, touches):
        lru = Lru2Q(50)
        for page, epoch in touches:
            lru.touch(np.array([page]), epoch)
        tracked = lru.active_count() + lru.inactive_count()
        assert tracked == len({p for p, _ in touches})

    @given(st.lists(st.integers(0, 29), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_coldest_returns_tracked_pages_only(self, pages):
        lru = Lru2Q(30)
        for epoch, page in enumerate(pages):
            lru.touch(np.array([page]), epoch)
        picks = lru.coldest(10)
        assert set(picks.tolist()) <= set(pages)

    @given(st.lists(st.lists(st.integers(0, 29), max_size=40), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_repeated_pages_touch_like_distinct(self, epochs):
        """A touch with every page repeated, in reverse, leaves the lists
        as a touch of the distinct pages does."""
        distinct, repeated = Lru2Q(30), Lru2Q(30)
        for epoch, pages in enumerate(epochs):
            batch = np.array(pages, dtype=np.int64)
            distinct.touch(np.unique(batch), epoch)
            repeated.touch(np.concatenate([batch, batch])[::-1], epoch)
        for page in range(30):
            assert repeated.state_of(page) == distinct.state_of(page)
        np.testing.assert_array_equal(repeated.coldest(30), distinct.coldest(30))
