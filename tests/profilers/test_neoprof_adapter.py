"""Tests for the NeoProf profiler adapter."""

from repro.core.neoprof.device import NeoProfConfig
from repro.profilers.neoprof_adapter import NeoProfProfiler


def make_profiler(threshold=16, num_pages=2000):
    # num_pages: the page space of the run_engine fixture's workload
    return NeoProfProfiler(num_pages, NeoProfConfig(sketch_width=8192, initial_threshold=threshold))


class TestAdapter:
    def test_observe_is_free(self, run_engine):
        """Snooping happens in hardware: zero CPU cost per epoch."""
        prof = make_profiler()
        policy, engine = run_engine(batches=10, profilers=[prof])
        assert policy.overhead_of(prof) == 0.0

    def test_hot_candidates_found(self, run_engine):
        prof = make_profiler(threshold=50)
        run_engine(batches=10, hot=40, profilers=[prof])
        hot = set(prof.hot_candidates().tolist())
        # the hot set lives on the slow tier in this fixture, so NeoProf
        # sees its misses and flags it
        assert len(hot & set(range(40))) > 30

    def test_every_slow_access_counted(self, run_engine):
        """Table I: NeoProf profiles *each* access, not samples."""
        prof = make_profiler()
        policy, engine = run_engine(batches=10, profilers=[prof])
        slow_total = sum(int(v.slow_miss_stream()[1].sum()) for v in policy.views)
        assert slow_total > 0
        assert prof.device.snooped_requests == slow_total

    def test_drain_bills_mmio_next_epoch(self, run_engine):
        prof = make_profiler(threshold=20)
        policy, engine = run_engine(batches=10, hot=40, profilers=[prof])
        pages = prof.hot_candidates()
        assert pages.size > 0
        # the drain's MMIO time is billed on the next observe
        billed = prof.observe(policy.views[-1])
        assert billed > 0.0

    def test_threshold_and_reset(self, run_engine):
        prof = make_profiler(threshold=10)
        prof.driver.set_threshold(10**9)  # impossible threshold
        run_engine(batches=10, hot=40, profilers=[prof])
        assert prof.hot_candidates().size == 0
        prof.driver.reset()
        assert prof.device.detector.pending == 0
