"""Tests for the PTE-scan profiler."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.memsim.page_table import PageTable
from repro.profilers.pte_scan import PteScanProfiler

NUM_PAGES = 2000  # matches the run_engine fixture default


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PteScanProfiler(0)
        with pytest.raises(ValueError):
            PteScanProfiler(10, scan_interval_s=0)
        with pytest.raises(ValueError):
            PteScanProfiler(10, hot_epochs=5, window_epochs=2)


class TestScanning:
    def test_scans_happen_on_interval(self, run_engine):
        prof = PteScanProfiler(NUM_PAGES, scan_interval_s=1e-12)
        policy, engine = run_engine(batches=10, profilers=[prof])
        assert prof.scans_completed == 10

    def test_no_scan_before_interval(self, run_engine):
        prof = PteScanProfiler(NUM_PAGES, scan_interval_s=1e6)
        policy, engine = run_engine(batches=5, profilers=[prof])
        assert prof.scans_completed == 0
        assert policy.overhead_of(prof) == 0.0

    def test_scan_cost_linear_in_pages(self, run_engine):
        """Challenge #1: scan cost grows with the scanned PTE range."""
        small = PteScanProfiler(NUM_PAGES, scan_interval_s=1e-12, ns_per_pte=25)
        big = PteScanProfiler(2 * NUM_PAGES, scan_interval_s=1e-12, ns_per_pte=25)
        policy, engine = run_engine(batches=3, profilers=[small, big])
        assert policy.overhead_of(big) == pytest.approx(2 * policy.overhead_of(small))

    def test_accessed_bits_cleared_after_scan(self, run_engine):
        prof = PteScanProfiler(NUM_PAGES, scan_interval_s=1e-12)
        policy, engine = run_engine(batches=10, profilers=[prof])
        # the final epoch's scan cleared everything set that epoch
        assert engine.page_table.accessed_pages().size == 0


class TestHotDetection:
    def test_hot_pages_detected_after_enough_epochs(self, run_engine):
        prof = PteScanProfiler(NUM_PAGES, scan_interval_s=1e-12, hot_epochs=2)
        policy, engine = run_engine(batches=10, hot=40, profilers=[prof])
        hot = set(prof.hot_candidates().tolist())
        # hot pages are touched every epoch -> present in every window
        assert set(range(40)) <= hot

    def test_one_scan_insufficient(self, run_engine):
        prof = PteScanProfiler(NUM_PAGES, scan_interval_s=1e-12, hot_epochs=2)
        policy, engine = run_engine(batches=1, profilers=[prof])
        assert prof.hot_candidates().size == 0

    def test_cannot_distinguish_frequency_within_epoch(self, run_engine):
        """The defining limitation: 1 access == 10k accesses per epoch."""
        prof = PteScanProfiler(NUM_PAGES, scan_interval_s=1e-12, hot_epochs=2)
        policy, engine = run_engine(batches=10, hot=40, profilers=[prof])
        hot = set(prof.hot_candidates().tolist())
        # cold pages touched in >= 2 scan windows are indistinguishable
        # from truly hot ones; with 2000 pages and ~600 cold touches per
        # epoch, many cold pages qualify.
        cold_flagged = [p for p in hot if p >= 40]
        assert len(cold_flagged) > 50

    def test_empty_history_no_candidates(self):
        prof = PteScanProfiler(100)
        assert prof.hot_candidates().size == 0


def test_candidates_change_when_a_scan_lands_and_not_between():
    """The hot set is the pages seen in at least ``hot_epochs`` of the
    window's scans; it moves only when a scan lands, however the
    Accessed bits change between scans."""
    num_pages, hot_epochs, window = 32, 2, 3
    prof = PteScanProfiler(
        num_pages, scan_interval_s=1.0, hot_epochs=hot_epochs, window_epochs=window
    )
    page_table = PageTable(num_pages)
    rng = np.random.default_rng(7)
    scanned: list[set] = []
    for epoch in range(40):
        page_table.set_accessed(rng.choice(num_pages, size=8, replace=False))
        seen = set(page_table.accessed_pages().tolist())
        before = prof.hot_candidates().tolist()
        view = SimpleNamespace(
            page_table=page_table, sim_time_ns=epoch * 0.3e9, duration_ns=0.3e9
        )
        scans = prof.scans_completed
        prof.observe(view)
        if prof.scans_completed == scans:
            assert prof.hot_candidates().tolist() == before
            continue
        scanned = (scanned + [seen])[-window:]
        expected = [p for p in range(num_pages) if sum(p in s for s in scanned) >= hot_epochs]
        assert prof.hot_candidates().tolist() == expected
    assert prof.scans_completed >= 2 * window
