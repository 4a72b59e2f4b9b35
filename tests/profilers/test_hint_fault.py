"""Tests for the hint-fault profiler."""

import numpy as np
import pytest

from repro.profilers.hint_fault import HintFaultProfiler

NUM_PAGES = 2000


def make(scan_window=10_000, interval=1e-12, **kwargs):
    return HintFaultProfiler(
        NUM_PAGES, scan_window_pages=scan_window, scan_interval_s=interval, **kwargs
    )


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            HintFaultProfiler(0)
        with pytest.raises(ValueError):
            HintFaultProfiler(10, scan_window_pages=0)
        with pytest.raises(ValueError):
            HintFaultProfiler(10, scan_interval_s=0)


class TestFaultDelivery:
    def test_poisoned_page_faults_on_touch(self, run_engine):
        prof = make()
        run_engine(batches=8, profilers=[prof])
        assert prof.total_faults > 0
        # hot pages (0..39, on the slow tier) fault repeatedly
        assert prof.fault_count[:40].sum() > 0

    def test_fault_consumes_poison(self, run_engine):
        prof = make()
        policy, engine = run_engine(batches=8, profilers=[prof])
        faulted = np.nonzero(prof.fault_count > 0)[0]
        assert faulted.size > 0

    def test_overhead_proportional_to_faults(self, run_engine):
        prof = make(fault_cost_ns=5000.0)
        policy, engine = run_engine(batches=8, profilers=[prof])
        assert policy.overhead_of(prof) >= prof.total_faults * 5000.0

    def test_no_faults_without_scanning(self, run_engine):
        prof = make(interval=1e9)
        run_engine(batches=5, profilers=[prof])
        assert prof.total_faults == 0


class TestSlowOnly:
    def test_slow_only_never_poisons_fast_pages(self, run_engine):
        prof = make(scan_window=100_000, slow_only=True)
        policy, engine = run_engine(batches=8, profilers=[prof])
        faulted = np.nonzero(prof.fault_count > 0)[0]
        # nobody migrates in this fixture, so every faulted page is
        # still on a slow node
        nodes = engine.page_table.nodes_of(faulted)
        assert (nodes > 0).all()


class TestSampledCoverage:
    def test_small_window_covers_few_pages(self, run_engine):
        """Rate-limited poisoning -> low coverage (Sec. II-C).

        Poison-based profilers share the PTE poison bits, so the two
        configurations must run in separate engines.
        """
        narrow = make(scan_window=50)
        wide = make(scan_window=10_000)
        run_engine(batches=8, profilers=[narrow])
        run_engine(batches=8, profilers=[wide])
        assert narrow.total_faults < wide.total_faults


class TestConsecutiveFaults:
    def test_two_fault_rule(self, run_engine):
        prof = make()
        policy, engine = run_engine(batches=10, profilers=[prof])
        pairs = prof.consecutive_fault_pages(max_epoch_gap=10)
        # hot pages fault every scan -> they re-fault quickly
        assert pairs.size > 0
        singles = prof.hot_candidates()
        assert pairs.size <= singles.size
