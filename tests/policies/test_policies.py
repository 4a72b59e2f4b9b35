"""Integration tests: every baseline policy drives the engine correctly."""

import numpy as np
import pytest

from repro.memsim.address import PAGES_PER_HUGE_PAGE
from repro.memsim.engine import EngineConfig, SimulationEngine
from repro.memsim.lru2q import Lru2Q
from repro.memsim.migration import MigrationEngine
from repro.memsim.numa import NumaTopology
from repro.memsim.page_table import PageTable
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL
from repro.policies import POLICY_NAMES, make_policy
from repro.policies.autonuma import AutoNumaPolicy
from repro.policies.base import BaseTieringPolicy
from repro.policies.first_touch import FirstTouchPolicy
from repro.policies.memtis import MemtisPolicy
from repro.policies.pebs_policy import PebsPolicy
from repro.policies.pte_scan_policy import PteScanPolicy
from repro.policies.tpp import TppPolicy
from tests.memsim.test_engine import start_hot_set_on_slow_tier

NUM_PAGES = 3000
HOT = 60


class SkewedWorkload:
    name = "skewed"
    num_pages = NUM_PAGES

    def __init__(self, batches=25, batch_size=8192):
        self.batches = batches
        self.batch_size = batch_size
        self.emitted = 0

    def next_batch(self, rng):
        if self.emitted >= self.batches:
            return None
        self.emitted += 1
        hot = rng.integers(0, HOT, size=int(self.batch_size * 0.9))
        cold = rng.integers(0, NUM_PAGES, size=self.batch_size - hot.size)
        pages = np.concatenate([hot, cold])
        rng.shuffle(pages)
        return pages, rng.random(pages.size) < 0.3


def run_policy(policy, batches=25, fast=150, slow=8000):
    engine = SimulationEngine(
        SkewedWorkload(batches=batches),
        [(DDR5_LOCAL, fast), (CXL_DRAM_PROTO, slow)],
        policy,
        EngineConfig(llc_capacity_pages=20, seed=5),
    )
    start_hot_set_on_slow_tier(engine, HOT)
    return engine.run(), engine


def fast_kwargs():
    """Compressed intervals so policies act within the short sim."""
    return dict(migration_interval_s=1e-5)


class TestFirstTouch:
    def test_never_migrates(self):
        report, engine = run_policy(FirstTouchPolicy())
        assert report.total_promoted_pages == 0
        assert report.total_demoted_pages == 0
        assert report.total_profiling_overhead_ns == 0.0


class TestPteScanPolicy:
    def test_promotes_hot_pages(self):
        policy = PteScanPolicy(NUM_PAGES, scan_interval_s=1e-5, hot_epochs=2)
        report, engine = run_policy(policy)
        assert report.total_promoted_pages > 0

    def test_migration_cadence_follows_scan_cadence(self):
        policy = PteScanPolicy(NUM_PAGES, scan_interval_s=7.0)
        assert policy.migration_interval_s == 7.0

    def test_charges_scan_overhead(self):
        policy = PteScanPolicy(NUM_PAGES, scan_interval_s=1e-5)
        report, engine = run_policy(policy)
        assert report.total_profiling_overhead_ns > 0


class TestAutoNuma:
    def test_promotes_on_faults(self):
        policy = AutoNumaPolicy(
            NUM_PAGES, scan_interval_s=1e-5, scan_window_pages=20_000, **fast_kwargs()
        )
        report, engine = run_policy(policy)
        assert report.total_promoted_pages > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoNumaPolicy(NUM_PAGES, hot_threshold=0)

    def test_promotes_more_than_tpp(self):
        """AutoNUMA's single-fault rule over-promotes vs TPP (Fig. 13)."""
        auto = AutoNumaPolicy(
            NUM_PAGES, scan_interval_s=1e-5, scan_window_pages=20_000, **fast_kwargs()
        )
        tpp = TppPolicy(NUM_PAGES, scan_interval_s=1e-5, scan_window_pages=20_000, **fast_kwargs())
        auto_report, _ = run_policy(auto)
        tpp_report, _ = run_policy(tpp)
        # Both are quota-capped in this short run, so allow a small
        # tolerance; the full-length Fig. 13 experiment shows the gap.
        assert auto_report.total_promoted_pages >= tpp_report.total_promoted_pages * 0.9


class TestTpp:
    def test_two_fault_rule_promotes(self):
        policy = TppPolicy(
            NUM_PAGES, scan_interval_s=1e-5, scan_window_pages=20_000, **fast_kwargs()
        )
        report, engine = run_policy(policy)
        assert report.total_promoted_pages > 0

    def test_aggressive_watermarks(self):
        policy = TppPolicy(NUM_PAGES)
        assert policy.demotion_watermark == pytest.approx(0.02)


class TestPebsPolicy:
    def test_promotes_sampled_hot_pages(self):
        policy = PebsPolicy(NUM_PAGES, sample_interval=50, **fast_kwargs())
        report, engine = run_policy(policy)
        assert report.total_promoted_pages > 0

    def test_sampling_interval_gates_coverage(self):
        fine = PebsPolicy(NUM_PAGES, sample_interval=20, **fast_kwargs())
        coarse = PebsPolicy(NUM_PAGES, sample_interval=5000, **fast_kwargs())
        fine_report, _ = run_policy(fine)
        coarse_report, _ = run_policy(coarse)
        assert fine_report.total_promoted_pages >= coarse_report.total_promoted_pages

    def test_validation(self):
        with pytest.raises(ValueError):
            PebsPolicy(NUM_PAGES, min_samples=0)


class TestMemtis:
    def test_promotes_within_fast_budget(self):
        policy = MemtisPolicy(NUM_PAGES, sample_interval=50, **fast_kwargs())
        report, engine = run_policy(policy)
        assert report.total_promoted_pages > 0

    def test_hot_set_sized_to_fast_tier(self):
        policy = MemtisPolicy(NUM_PAGES, sample_interval=20, **fast_kwargs())
        report, engine = run_policy(policy)
        fast = engine.topology.fast_node.tier
        assert fast.used_pages <= fast.capacity_pages


class TestBasePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BaseTieringPolicy(migration_interval_s=0)

    def test_watermark_demotion_triggers(self):
        policy = PebsPolicy(
            NUM_PAGES,
            sample_interval=50,
            demotion_watermark=0.5,
            demotion_target=0.6,
            **fast_kwargs(),
        )
        report, engine = run_policy(policy)
        assert report.total_demoted_pages > 0


def promote_thp(candidates, num_pages=4 * PAGES_PER_HUGE_PAGE):
    """Promote ``candidates`` once in THP mode; all pages start slow."""
    topology = NumaTopology([(DDR5_LOCAL, num_pages), (CXL_DRAM_PROTO, num_pages)])
    page_table = PageTable(num_pages)
    migration = MigrationEngine(topology, page_table, Lru2Q(num_pages))
    page_table.map_pages(np.arange(num_pages), 1)
    topology[1].tier.reserve(num_pages)
    migration.grant_quota(10.0)
    migration.apply_promotions(np.asarray(candidates, dtype=np.int64), epoch=0, thp=True)
    return page_table, migration


class TestThpCoalescing:
    """Sec. VII: enough hot reports in one 2 MB frame move the whole frame."""

    def test_reported_frame_migrates_whole(self):
        frame = 2 * PAGES_PER_HUGE_PAGE
        page_table, migration = promote_thp([frame + 3, frame + 400])
        fast = np.nonzero(page_table.node_of_page == 0)[0]
        assert fast.tolist() == list(range(frame, frame + PAGES_PER_HUGE_PAGE))
        assert migration.stats.promoted_huge_pages == 1

    def test_lone_report_moves_as_base_page(self):
        frame = 2 * PAGES_PER_HUGE_PAGE
        assert MigrationEngine.THP_HOT_REPORTS > 1
        page_table, migration = promote_thp([frame + 3])
        fast = np.nonzero(page_table.node_of_page == 0)[0]
        assert fast.tolist() == [frame + 3]
        assert migration.stats.promoted_huge_pages == 0

    def test_trailing_frame_stops_at_the_table_end(self):
        frame = 2 * PAGES_PER_HUGE_PAGE
        num_pages = frame + 100
        page_table, migration = promote_thp([frame + 1, frame + 50], num_pages=num_pages)
        fast = np.nonzero(page_table.node_of_page == 0)[0]
        assert fast.tolist() == list(range(frame, num_pages))
        assert migration.stats.promoted_huge_pages == 1


class TestRegistry:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_make_policy_builds_each(self, name):
        policy = make_policy(name, NUM_PAGES)
        assert hasattr(policy, "on_epoch")
        assert not hasattr(policy, "bind")

    def test_fixed_threshold_variant(self):
        policy = make_policy("neomem-fixed-200", NUM_PAGES)
        assert policy.name == "neomem-fixed-200"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("bogus", NUM_PAGES)


class TestEndToEndOrdering:
    def test_tiering_beats_first_touch_on_skew(self):
        """Any competent tiering must beat first-touch when the hot set
        starts on the slow tier (the Fig. 11 premise)."""
        ft_report, _ = run_policy(FirstTouchPolicy(), batches=30)
        pebs_report, _ = run_policy(
            PebsPolicy(NUM_PAGES, sample_interval=50, **fast_kwargs()), batches=30
        )
        assert pebs_report.total_time_ns < ft_report.total_time_ns
