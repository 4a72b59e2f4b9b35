"""Unit and property tests for the exact cache models."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim.cache import Cache, CacheHierarchy


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = Cache(1024, 2)
        assert cache.access(0) is False
        assert cache.access(0) is True

    def test_different_lines_miss_independently(self):
        cache = Cache(1024, 2)
        cache.access(0)
        assert cache.access(64) is False

    def test_same_line_different_bytes_hit(self):
        cache = Cache(1024, 2)
        cache.access(0)
        assert cache.access(63) is True

    def test_lru_eviction_within_set(self):
        # 2-way, 8 sets of 64 B lines: lines mapping to set 0 are
        # multiples of 8 lines = 512 B.
        cache = Cache(1024, 2)
        a, b, c = 0, 512, 1024
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is MRU
        cache.access(c)  # evicts b (LRU)
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_eviction_counter(self):
        cache = Cache(1024, 2)
        for addr in (0, 512, 1024):
            cache.access(addr)
        assert cache.stats.evictions == 1

    def test_flush_empties_cache(self):
        cache = Cache(1024, 2)
        cache.access(0)
        cache.flush()
        assert not cache.contains(0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(1024, 3)  # 16 lines not divisible by 3 ways
        with pytest.raises(ValueError):
            Cache(0, 1)

    def test_miss_rate(self):
        cache = Cache(1024, 2)
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_insert_does_not_count_stats(self):
        cache = Cache(1024, 2)
        cache.insert(0)
        assert cache.stats.accesses == 0
        assert cache.contains(0)

    def test_insert_refreshes_lru(self):
        cache = Cache(1024, 2)
        cache.access(0)
        cache.access(512)
        cache.insert(0)  # refresh 0 as MRU
        cache.access(1024)  # evicts 512
        assert cache.contains(0)
        assert not cache.contains(512)


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = Cache(2048, 4)
        for addr in addrs:
            cache.access(addr)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses

    @given(st.lists(st.integers(min_value=0, max_value=100_000), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache(1024, 2)
        for addr in addrs:
            cache.access(addr)
        valid = int(np.count_nonzero(cache._tags != -1))  # noqa: SLF001
        assert valid <= 1024 // 64

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_immediate_rereference_always_hits(self, addr):
        cache = Cache(4096, 4)
        cache.access(addr)
        assert cache.access(addr) is True

    def test_working_set_within_capacity_all_hits_second_round(self):
        cache = Cache(4096, 4)  # 64 lines
        addrs = [i * 64 for i in range(64)]
        for addr in addrs:
            cache.access(addr)
        assert all(cache.access(a) for a in addrs)


class TestCacheHierarchy:
    def test_default_geometry(self):
        h = CacheHierarchy()
        assert [c.name for c in h.levels] == ["l1d", "l2", "llc"]

    def test_llc_miss_then_l1_hit(self):
        h = CacheHierarchy()
        assert h.access(0) is None  # cold: memory access
        assert h.access(0) == 0  # now in L1

    def test_l2_hit_promotes_to_l1(self):
        l1 = Cache(128, 2, name="l1")
        l2 = Cache(4096, 4, name="l2")
        h = CacheHierarchy([l1, l2])
        h.access(0)
        # Evict 0 from tiny L1 by touching conflicting lines.
        # 128 B, 2-way -> 1 set: two more lines evict 0 from L1 only.
        h.access(64)
        h.access(128)
        assert not l1.contains(0)
        assert l2.contains(0)
        assert h.access(0) == 1  # L2 hit
        assert l1.contains(0)  # refilled into L1

    def test_is_llc_miss(self):
        h = CacheHierarchy()
        assert h.is_llc_miss(0) is True
        assert h.is_llc_miss(0) is False

    def test_flush(self):
        h = CacheHierarchy()
        h.access(0)
        h.flush()
        assert h.access(0) is None

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_not_inclusive(self):
        # nothing back-invalidates: L1 keeps line 0 after the LLC evicts it
        l1 = Cache(128, 2, name="l1")
        llc = Cache(256, 1, name="llc")
        h = CacheHierarchy([l1, llc])
        for addr in (0, 0, 256):
            h.access(addr)
        assert l1.contains(0)
        assert not llc.contains(0)
        assert h.access(0) == 0
        fresh = CacheHierarchy([Cache(128, 2), Cache(256, 1)])
        assert fresh.access_batch([0, 0, 256, 0]).tolist() == [-1, 0, -1, 0]


def _state(cache):
    """The counters plus everything a later access can observe."""
    return (
        dataclasses.astuple(cache.stats),
        cache._tags.tolist(),  # noqa: SLF001
        cache._lru.tolist(),  # noqa: SLF001
        cache._clock,  # noqa: SLF001
    )


def _states(hierarchy):
    return [_state(level) for level in hierarchy.levels]


def _level(hit):
    return -1 if hit is None else hit


#: (size bytes, ways): 2 to 32 lines, against 128 distinct lines below
CACHE_GEOMETRIES = [(128, 2), (256, 1), (512, 2), (1024, 4), (2048, 2)]
HIERARCHY_GEOMETRIES = [
    ((128, 2), (256, 1)),  # the LLC evicts lines L1 keeps
    ((128, 2), (512, 2), (1024, 4)),
    ((256, 1), (512, 4), (2048, 2)),
    ((512, 2),),
]
ADDRS = st.lists(st.integers(min_value=0, max_value=8191), max_size=60)
#: (batched?, addresses) chunks applied in order, interleaving both paths
CHUNKS = st.lists(st.tuples(st.booleans(), ADDRS), max_size=5)


class TestBatchMatchesScalar:
    """``access_batch`` equals a loop of ``access``, final state included,
    so the two can be mixed on one cache."""

    @given(st.sampled_from(CACHE_GEOMETRIES), CHUNKS, ADDRS)
    @settings(max_examples=60, deadline=None)
    def test_cache(self, geometry, chunks, probe):
        mixed, reference = Cache(*geometry), Cache(*geometry)
        for batched, addrs in chunks:
            want = [reference.access(a) for a in addrs]
            if batched:
                hits = mixed.access_batch(np.array(addrs, dtype=np.int64))
                assert hits.dtype == bool
                got = hits.tolist()
            else:
                got = [mixed.access(a) for a in addrs]
            assert got == want
            assert _state(mixed) == _state(reference)
        assert [mixed.access(a) for a in probe] == [reference.access(a) for a in probe]

    @given(st.sampled_from(HIERARCHY_GEOMETRIES), CHUNKS, ADDRS)
    @settings(max_examples=60, deadline=None)
    def test_hierarchy(self, geometry, chunks, probe):
        mixed, reference = (
            CacheHierarchy([Cache(size, ways) for size, ways in geometry]) for _ in range(2)
        )
        for batched, addrs in chunks:
            want = [_level(reference.access(a)) for a in addrs]
            if batched:
                levels = mixed.access_batch(np.array(addrs, dtype=np.int64))
                assert levels.dtype == np.int8
                got = levels.tolist()
            else:
                got = [_level(mixed.access(a)) for a in addrs]
            assert got == want
            assert _states(mixed) == _states(reference)
        assert [mixed.access(a) for a in probe] == [reference.access(a) for a in probe]

    def test_fig04b_geometry(self):
        """Hundreds of sets per round, and refills from both slower levels."""
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 128, size=6000) * 4096 + rng.integers(0, 64, size=6000) * 64
        mixed, reference = (
            CacheHierarchy(
                [Cache(32 * 1024, 8), Cache(256 * 1024, 8), Cache(2 * 1024 * 1024, 16)]
            )
            for _ in range(2)
        )
        want = [_level(reference.access(a)) for a in addrs.tolist()]
        got = mixed.access_batch(addrs[:2500]).tolist()
        got += [_level(mixed.access(a)) for a in addrs[2500:3000].tolist()]
        got += mixed.access_batch(addrs[3000:]).tolist()
        assert got == want
        assert set(want) == {-1, 0, 1, 2}
        assert _states(mixed) == _states(reference)

    def test_empty_batch_changes_nothing(self):
        h = CacheHierarchy([Cache(128, 2), Cache(256, 1)])
        h.access(0)
        before = _states(h)
        assert h.access_batch([]).tolist() == []
        assert h.levels[0].access_batch([]).tolist() == []
        assert _states(h) == before
