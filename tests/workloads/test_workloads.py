"""Tests for the benchmark trace generators."""

import numpy as np
import pytest

from repro.workloads import (
    BENCHMARKS,
    BtreeWorkload,
    BwavesWorkload,
    DeathStarBenchWorkload,
    GupsWorkload,
    PageRankWorkload,
    RedisWorkload,
    make_workload,
    workload_names,
)
from repro.workloads.base import TraceWorkload


def drain(workload, rng=None):
    """Run a workload to completion, returning all batches."""
    rng = rng or np.random.default_rng(0)
    batches = []
    while True:
        batch = workload.next_batch(rng)
        if batch is None:
            break
        batches.append(batch)
    return batches


SMALL = dict(num_pages=4096, total_batches=6, batch_size=4096)


class TestRegistry:
    def test_benchmark_set_matches_paper(self):
        assert len(BENCHMARKS) == 8
        assert set(BENCHMARKS) <= set(workload_names())
        assert "redis" in workload_names()  # Fig. 4-(b) trace source

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_generates_valid_batches(self, name):
        wl = make_workload(name, **SMALL)
        batches = drain(wl)
        assert len(batches) == 6
        for pages, is_write in batches:
            assert pages.size == 4096
            assert pages.min() >= 0
            assert pages.max() < 4096
            assert is_write.shape == pages.shape
            assert is_write.dtype == bool

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_workload("nope")

    @pytest.mark.parametrize("name", workload_names())
    def test_deterministic_given_seed(self, name):
        a = drain(make_workload(name, **SMALL), np.random.default_rng(42))
        b = drain(make_workload(name, **SMALL), np.random.default_rng(42))
        for (pa, wa), (pb, wb) in zip(a, b):
            assert np.array_equal(pa, pb)
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("name", workload_names())
    def test_drained_workload_is_finished(self, name):
        wl = make_workload(name, **SMALL)
        drain(wl)
        assert wl.next_batch(np.random.default_rng(0)) is None


class TestBaseValidation:
    def test_invalid_sizes(self):
        class Dummy(TraceWorkload):
            def generate(self, batch_index, rng):
                return np.zeros(1, dtype=np.int64)

        with pytest.raises(ValueError):
            Dummy(0, 1)
        with pytest.raises(ValueError):
            Dummy(1, 0)
        with pytest.raises(ValueError):
            Dummy(1, 1, write_fraction=1.5)

    def test_out_of_range_pages_caught(self):
        class Broken(TraceWorkload):
            name = "broken"

            def generate(self, batch_index, rng):
                return np.array([self.num_pages])  # out of range

        wl = Broken(10, 1)
        with pytest.raises(RuntimeError):
            wl.next_batch(np.random.default_rng(0))

    def test_empty_batch_caught(self):
        class Silent(TraceWorkload):
            name = "silent"

            def generate(self, batch_index, rng):
                return np.zeros(0, dtype=np.int64)

        with pytest.raises(RuntimeError):
            Silent(10, 1).next_batch(np.random.default_rng(0))

    def test_batch_fitted_to_epoch_size(self):
        """Generators emit whole lookups; the epoch is truncated or cycled."""

        class Fixed(TraceWorkload):
            name = "fixed"

            def __init__(self, emit, batch_size):
                super().__init__(100, 1, batch_size)
                self.emit = emit

            def generate(self, batch_index, rng):
                return np.arange(self.emit)

        rng = np.random.default_rng(0)
        pages, is_write = Fixed(emit=10, batch_size=4).next_batch(rng)
        assert pages.tolist() == [0, 1, 2, 3]
        assert is_write.shape == (4,)
        pages, _ = Fixed(emit=3, batch_size=7).next_batch(rng)
        assert pages.tolist() == [0, 1, 2, 0, 1, 2, 0]


class TestGups:
    def test_hot_set_concentration(self):
        wl = GupsWorkload(
            num_pages=10_000, total_batches=2, batch_size=50_000,
            hot_fraction_of_pages=0.1, hot_access_fraction=0.9,
        )
        pages, _ = wl.next_batch(np.random.default_rng(0))
        hot = wl.hot_pages(0)
        in_hot = np.isin(pages, hot).mean()
        assert in_hot > 0.88

    def test_hot_set_relocation(self):
        wl = GupsWorkload(num_pages=10_000, total_batches=10, relocate_at=5)
        before = set(wl.hot_pages(0).tolist())
        after = set(wl.hot_pages(5).tolist())
        assert before.isdisjoint(after)

    def test_no_relocation_by_default(self):
        wl = GupsWorkload(num_pages=10_000, total_batches=10)
        assert np.array_equal(wl.hot_pages(0), wl.hot_pages(9))

    def test_validation(self):
        with pytest.raises(ValueError):
            GupsWorkload(hot_fraction_of_pages=1.5)


class TestPageRank:
    def test_phases(self):
        wl = PageRankWorkload(
            num_pages=8192, iterations=4, batches_per_iteration=2, build_batches=3,
            batch_size=4096,
        )
        assert wl.phase_of(0) == "build"
        assert wl.phase_of(2) == "build"
        assert wl.phase_of(3) == "process"

    def test_batches_of_iteration(self):
        wl = PageRankWorkload(
            num_pages=8192, iterations=4, batches_per_iteration=2, build_batches=3,
            batch_size=4096,
        )
        assert list(wl.batches_of_iteration(0)) == [3, 4]
        assert list(wl.batches_of_iteration(3)) == [9, 10]

    def test_build_phase_writes_structure(self):
        wl = PageRankWorkload(num_pages=8192, batch_size=4096)
        rng = np.random.default_rng(0)
        pages, _ = wl.next_batch(rng)
        # build touches the structure region (beyond the rank arrays)
        assert (pages >= wl.rank_pages).all()

    def test_process_phase_touches_rank_arrays(self):
        wl = PageRankWorkload(
            num_pages=8192, iterations=2, batches_per_iteration=1, build_batches=1,
            batch_size=4096,
        )
        rng = np.random.default_rng(0)
        wl.next_batch(rng)  # build
        pages, _ = wl.next_batch(rng)  # first processing batch
        assert (pages < wl.rank_pages).any()
        assert (pages >= wl.rank_pages).any()


class TestBtree:
    def test_inner_levels_hot(self):
        wl = BtreeWorkload(num_pages=100_000, total_batches=2, batch_size=40_000)
        pages, _ = wl.next_batch(np.random.default_rng(0))
        inner_span = wl.level_starts[-1]  # leaves start here
        inner_hits = (pages < inner_span).mean()
        # 3 of 4 levels are inner -> ~75 % of touches, on ~2 % of pages
        assert inner_hits > 0.7
        assert inner_span < 0.05 * wl.num_pages

    def test_validation(self):
        with pytest.raises(ValueError):
            BtreeWorkload(levels=1)
        with pytest.raises(ValueError):
            BtreeWorkload(num_pages=100, levels=4, fanout_fraction=0.9)


class TestDeathStarBench:
    def test_popularity_churn(self):
        wl = DeathStarBenchWorkload(num_pages=8192, total_batches=30, churn_every=5)
        perm_before = wl._popularity_permutation(0)
        perm_same_era = wl._popularity_permutation(4)
        perm_after = wl._popularity_permutation(5)
        assert np.array_equal(perm_before, perm_same_era)
        assert not np.array_equal(perm_before, perm_after)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeathStarBenchWorkload(cache_fraction=0.9, session_fraction=0.2)


class TestBwaves:
    def test_needs_an_array(self):
        with pytest.raises(ValueError):
            BwavesWorkload(num_arrays=0)


class TestRedis:
    def test_rehash_burst_sweeps(self):
        wl = RedisWorkload(
            num_pages=8192, total_batches=16, batch_size=4096, rehash_every=4
        )
        rng = np.random.default_rng(0)
        batches = drain(wl, rng)
        # batch 3 is a rehash: mostly sequential, low duplication
        rehash_pages = batches[3][0]
        normal_pages = batches[0][0]
        assert np.unique(rehash_pages).size > np.unique(normal_pages).size
