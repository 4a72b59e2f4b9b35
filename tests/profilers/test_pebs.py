"""Tests for the PEBS sampling profiler."""

import numpy as np
import pytest

from repro.profilers.pebs import PebsProfiler

NUM_PAGES = 2000


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PebsProfiler(0)
        with pytest.raises(ValueError):
            PebsProfiler(10, sample_interval=0)


class TestSampling:
    def test_every_kth_miss_sampled(self, run_engine):
        prof = PebsProfiler(NUM_PAGES, sample_interval=10)
        policy, engine = run_engine(batches=10, profilers=[prof])
        total_misses = sum(v.miss_pages.size for v in policy.views)
        assert prof.total_samples == pytest.approx(total_misses / 10, rel=0.05)

    def test_sampling_rate_controls_overhead(self, run_engine):
        """Fig. 4-(c): smaller interval -> more samples -> more overhead."""
        fine = PebsProfiler(NUM_PAGES, sample_interval=10)
        coarse = PebsProfiler(NUM_PAGES, sample_interval=1000)
        policy, engine = run_engine(batches=10, profilers=[fine, coarse])
        assert policy.overhead_of(fine) > policy.overhead_of(coarse) * 10

    def test_hot_pages_accumulate_samples(self, run_engine):
        prof = PebsProfiler(NUM_PAGES, sample_interval=50)
        run_engine(batches=10, hot=40, profilers=[prof])
        assert prof.sample_count[:40].sum() > prof.sample_count[40:].sum()

    def test_low_rate_misses_moderate_pages(self, run_engine):
        """Low coverage at coarse sampling: many hot pages get 0 samples."""
        prof = PebsProfiler(NUM_PAGES, sample_interval=5000)
        run_engine(batches=10, hot=40, profilers=[prof])
        sampled_hot = (prof.sample_count[:40] > 0).sum()
        assert sampled_hot < 40

    def test_phase_carries_across_epochs(self):
        prof = PebsProfiler(100, sample_interval=7)

        class FakeView:
            sim_time_ns = 0.0
            duration_ns = 1.0

            def __init__(self, n):
                self.miss_pages = np.zeros(n, dtype=np.int64)

        for _ in range(10):
            prof.observe(FakeView(3))  # 30 misses in dribs and drabs
        # global miss indices 0, 7, 14, 21, 28 are sampled
        assert prof.total_samples == len(range(0, 30, 7))

    def test_empty_epoch(self):
        prof = PebsProfiler(100)

        class EmptyView:
            sim_time_ns = 0.0
            duration_ns = 1.0
            miss_pages = np.zeros(0, dtype=np.int64)

        assert prof.observe(EmptyView()) == 0.0


class TestDecay:
    def test_counts_decay_over_time(self, run_engine):
        prof = PebsProfiler(NUM_PAGES, sample_interval=10, decay_interval_s=1e-12)
        policy, engine = run_engine(batches=10, profilers=[prof])
        before = prof.sample_count.sum()
        last = policy.views[-1]

        class QuietView:
            sim_time_ns = last.sim_time_ns + last.duration_ns
            duration_ns = last.duration_ns
            miss_pages = np.zeros(1, dtype=np.int64)

        prof.observe(QuietView())
        assert prof.sample_count.sum() < before

    def test_interrupt_accounting(self, run_engine):
        prof = PebsProfiler(NUM_PAGES, sample_interval=5, buffer_entries=16)
        run_engine(batches=10, profilers=[prof])
        assert prof.total_interrupts > 0


class TestCandidates:
    def test_hot_candidates_threshold(self, run_engine):
        prof = PebsProfiler(NUM_PAGES, sample_interval=20)
        run_engine(batches=10, hot=40, profilers=[prof])
        few = prof.hot_candidates(min_samples=10)
        many = prof.hot_candidates(min_samples=1)
        assert few.size <= many.size
