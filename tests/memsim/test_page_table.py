"""Tests for the page-table model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim.page_table import PageTable


class TestPlacement:
    def test_initially_unmapped(self):
        pt = PageTable(10)
        assert (pt.node_of_page == -1).all()
        assert pt.unmapped_pages(np.arange(10)).size == 10

    def test_map_pages(self):
        pt = PageTable(10)
        pt.map_pages(np.array([1, 3]), node_id=2)
        assert pt.nodes_of(np.array([1, 3])).tolist() == [2, 2]
        assert pt.nodes_of(np.array([0])).tolist() == [-1]

    def test_pages_on_node(self):
        pt = PageTable(10)
        pt.map_pages(np.array([4, 7]), 1)
        assert pt.pages_on_node(1).tolist() == [4, 7]

    def test_occupancy(self):
        pt = PageTable(10)
        pt.map_pages(np.arange(3), 0)
        pt.map_pages(np.arange(3, 8), 1)
        assert pt.occupancy() == {0: 3, 1: 5}

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PageTable(0)


class TestAccessedBits:
    def test_set_and_read(self):
        pt = PageTable(10)
        pt.set_accessed(np.array([2, 5]))
        assert pt.accessed_pages().tolist() == [2, 5]

    def test_clear_all(self):
        pt = PageTable(10)
        pt.set_accessed(np.arange(10))
        pt.clear_accessed_all()
        assert pt.accessed_pages().size == 0

    def test_clear_subset(self):
        pt = PageTable(10)
        pt.set_accessed(np.array([1, 2, 3]))
        pt.clear_accessed(np.array([2]))
        assert pt.accessed_pages().tolist() == [1, 3]

    def test_clear_all_preserves_other_flags(self):
        pt = PageTable(10)
        pt.poison(np.array([4]))
        pt.set_accessed(np.array([4]))
        pt.clear_accessed_all()
        assert pt.poisoned_mask(np.array([4])).tolist() == [True]


class TestPoisonBits:
    def test_poison_unpoison(self):
        pt = PageTable(10)
        pt.poison(np.array([0, 9]))
        assert pt.poisoned_mask(np.arange(10)).sum() == 2
        pt.unpoison(np.array([0]))
        assert pt.poisoned_mask(np.arange(10)).sum() == 1


class TestDemotedFlag:
    def test_ping_pong_cycle(self):
        pt = PageTable(10)
        pt.mark_demoted(np.array([3]))
        assert pt.demoted_mask(np.array([3])).tolist() == [True]
        pt.clear_demoted(np.array([3]))
        assert pt.demoted_mask(np.array([3])).tolist() == [False]


class TestProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_map_then_read_consistent(self, pages, node):
        pt = PageTable(100)
        arr = np.array(pages)
        pt.map_pages(arr, node)
        assert (pt.nodes_of(arr) == node).all()

    @given(st.lists(st.integers(min_value=0, max_value=99), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_accessed_bits_idempotent(self, pages):
        pt = PageTable(100)
        arr = np.array(pages, dtype=np.int64)
        pt.set_accessed(arr)
        once = pt.accessed_pages()
        pt.set_accessed(arr)
        assert np.array_equal(once, pt.accessed_pages())
