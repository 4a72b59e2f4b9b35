"""Tests for the DAMON-style region profiler."""

import pytest

from repro.profilers.damon import DamonProfiler

NUM_PAGES = 2000


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            DamonProfiler(0)
        with pytest.raises(ValueError):
            DamonProfiler(10, num_regions=20)
        with pytest.raises(ValueError, match="sample interval"):
            DamonProfiler(100, num_regions=10, sample_interval_s=0)

    def test_regions_partition_address_space(self):
        prof = DamonProfiler(1000, num_regions=7)
        assert prof._starts[0] == 0
        assert prof._ends[-1] == 1000
        assert (prof._starts[1:] == prof._ends[:-1]).all()


class TestSampling:
    def test_overhead_scales_with_regions(self, run_engine):
        """Fig. 4-(a): finer space resolution costs more CPU."""
        coarse = DamonProfiler(NUM_PAGES, num_regions=10, sample_interval_s=1e-12)
        fine = DamonProfiler(NUM_PAGES, num_regions=1000, sample_interval_s=1e-12)
        policy, engine = run_engine(batches=10, profilers=[coarse, fine])
        assert policy.overhead_of(fine) > policy.overhead_of(coarse) * 50

    def test_overhead_scales_with_interval(self, run_engine):
        """Fig. 4-(a): finer time resolution costs more CPU."""
        slow = DamonProfiler(NUM_PAGES, sample_interval_s=1.0)
        fast = DamonProfiler(NUM_PAGES, sample_interval_s=1e-12)
        policy, engine = run_engine(batches=10, profilers=[slow, fast])
        assert policy.overhead_of(fast) > policy.overhead_of(slow)

    def test_one_check_per_epoch(self, run_engine):
        """Many sample intervals elapse per epoch, yet each epoch runs one
        check: a second would read bits the first just cleared."""
        prof = DamonProfiler(
            NUM_PAGES, num_regions=50, sample_interval_s=1e-12, aggregation_checks=100
        )
        policy, engine = run_engine(batches=6, profilers=[prof])
        assert policy.overheads[id(prof)] == [50 * prof.ns_per_check] * 6
        # the aggregation window outlasts the run, so no rates publish
        assert prof.hot_candidates().size == 0

    def test_hot_region_detected(self, run_engine):
        # 50 regions over 2000 pages -> 40 pages/region: region 0 is hot
        prof = DamonProfiler(
            NUM_PAGES,
            num_regions=50,
            sample_interval_s=1e-12,
            aggregation_checks=3,
            hot_rate=0.5,
        )
        run_engine(batches=10, hot=40, profilers=[prof])
        hot = prof.hot_candidates()
        assert hot.size > 0
        assert (hot < 80).any()

    def test_space_resolution_limit(self, run_engine):
        """Coarse regions cannot separate hot from cold pages."""
        prof = DamonProfiler(
            NUM_PAGES,
            num_regions=4,  # 500 pages per region
            sample_interval_s=1e-12,
            aggregation_checks=3,
            hot_rate=0.5,
        )
        run_engine(batches=10, hot=40, profilers=[prof])
        hot = prof.hot_candidates()
        if hot.size:
            # the flagged region drags in hundreds of cold pages
            assert hot.size >= 500
