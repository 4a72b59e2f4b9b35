"""Tests for the H3 hash family."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.neoprof.h3 import H3HashFamily


class TestConstruction:
    def test_output_bits(self):
        h = H3HashFamily(32, 1024, 2)
        assert h.output_bits == 10

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            H3HashFamily(32, 1000, 2)  # not a power of two
        with pytest.raises(ValueError):
            H3HashFamily(32, 0, 2)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            H3HashFamily(0, 64, 1)
        with pytest.raises(ValueError):
            H3HashFamily(64, 64, 1)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            H3HashFamily(32, 64, 0)


class TestCorrectness:
    def test_zero_hashes_to_zero(self):
        """H3 is linear over GF(2): h(0) = 0 always."""
        h = H3HashFamily(32, 1024, 4)
        assert all(h.hash_one(0, d) == 0 for d in range(4))

    def test_linearity_xor(self):
        """h(a ^ b) == h(a) ^ h(b) — the defining H3 property."""
        h = H3HashFamily(32, 4096, 2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.integers(0, 2**32, size=2)
            for d in range(2):
                lhs = h.hash_one(int(a) ^ int(b), d)
                assert lhs == h.hash_one(int(a), d) ^ h.hash_one(int(b), d)

    def test_batch_matches_scalar(self):
        h = H3HashFamily(24, 512, 3)
        values = np.array([0, 1, 5, 12345, 2**24 - 1], dtype=np.uint64)
        batch = h.hash_batch(values)
        for d in range(3):
            for i, v in enumerate(values):
                assert batch[d, i] == h.hash_one(int(v), d)

    def test_output_in_range(self):
        h = H3HashFamily(32, 256, 2)
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**32, size=1000, dtype=np.uint64)
        out = h.hash_batch(values)
        assert out.min() >= 0
        assert out.max() < 256

    def test_deterministic_across_instances(self):
        a = H3HashFamily(32, 1024, 2, seed=42)
        b = H3HashFamily(32, 1024, 2, seed=42)
        values = np.arange(100, dtype=np.uint64)
        assert np.array_equal(a.hash_batch(values), b.hash_batch(values))

    def test_different_seeds_differ(self):
        a = H3HashFamily(32, 1024, 2, seed=1)
        b = H3HashFamily(32, 1024, 2, seed=2)
        values = np.arange(1, 200, dtype=np.uint64)
        assert not np.array_equal(a.hash_batch(values), b.hash_batch(values))


class TestDistribution:
    def test_spread_over_columns(self):
        """Sequential addresses should spread broadly over columns."""
        h = H3HashFamily(32, 1024, 1)
        values = np.arange(10_000, dtype=np.uint64)
        cols = h.hash_batch(values)[0]
        occupancy = np.bincount(cols.astype(np.int64), minlength=1024)
        # Perfectly uniform would be ~9.8 per column; allow generous slack.
        assert occupancy.max() < 60
        assert (occupancy > 0).sum() > 900

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_batch_scalar_agree_property(self, value):
        h = H3HashFamily(32, 2048, 2, seed=7)
        batch = h.hash_batch(np.array([value], dtype=np.uint64))
        assert batch[0, 0] == h.hash_one(value, 0)
        assert batch[1, 0] == h.hash_one(value, 1)


class TestVectorizedBitIdentity:
    """The satellite contract: the chunked gather-XOR equals the per-bit
    scalar reference exactly, for any seed and any id width."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.lists(
            st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=64
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_scalar_for_any_seed(self, seed, data):
        h = H3HashFamily(41, 1024, 3, seed=seed)
        values = np.array(data, dtype=np.uint64)
        batch = h.hash_batch(values)
        assert batch.shape == (3, len(data))
        assert batch.min() >= 0 and batch.max() < 1024
        for d in range(3):
            for i, v in enumerate(data):
                assert int(batch[d, i]) == h.hash_one(v, d)

    def test_a_batch_hashes_each_id_on_its_own(self):
        """An id hashes alike whatever else its batch holds: small page
        numbers alone, and next to a wide physical address."""
        h = H3HashFamily(32, 4096, 2, seed=99)
        small = np.arange(0, 2**16, 97, dtype=np.uint64)
        alone = h.hash_batch(small)
        mixed = h.hash_batch(np.concatenate([small, np.array([2**31], dtype=np.uint64)]))
        assert np.array_equal(alone, mixed[:, : small.size])
        for d in range(2):
            assert int(mixed[d, -1]) == h.hash_one(2**31, d)
            assert int(alone[d, -1]) == h.hash_one(int(small[-1]), d)
