"""Tests for the migration engine: quota, ping-pong, capacity handling."""
# repro: noqa-file TEL003 — this suite tests the drain-once contract itself

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.address import PAGES_PER_HUGE_PAGE
from repro.memsim.lru2q import Lru2Q
from repro.memsim.migration import MigrationConfig, MigrationEngine, MigrationStats, Promotion
from repro.memsim.numa import NumaTopology
from repro.memsim.page_table import PageTable
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL


def build(fast=100, slow=200, num_pages=250, quota_mbps=1e6):
    topo = NumaTopology([(DDR5_LOCAL, fast), (CXL_DRAM_PROTO, slow)])
    pt = PageTable(num_pages)
    lru = Lru2Q(num_pages)
    cfg = MigrationConfig(quota_bytes_per_s=quota_mbps * 1024 * 1024, fast_free_target=0.0)
    eng = MigrationEngine(topo, pt, lru, cfg)
    return topo, pt, lru, eng


class TestPromotion:
    def test_promote_moves_pages_to_fast(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))  # 100 fast, 50 slow
        eng.grant_quota(1.0)
        moved = eng.promote(np.array([120, 130]), epoch=0)
        # fast is full -> cold pages demoted to make room
        assert moved == 2
        assert pt.nodes_of(np.array([120, 130])).tolist() == [0, 0]

    def test_promote_ignores_fast_pages(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(50))
        eng.grant_quota(1.0)
        assert eng.promote(np.arange(50), epoch=0) == 0

    def test_promote_empty(self):
        _, _, _, eng = build()
        eng.grant_quota(1.0)
        assert eng.promote(np.array([], dtype=np.int64), epoch=0) == 0

    def test_promotion_demotes_cold_pages_for_room(self):
        topo, pt, lru, eng = build(fast=10, slow=100, num_pages=60)
        topo.first_touch_allocate(pt, np.arange(60))
        lru.touch(np.arange(10), epoch=0)  # fast pages tracked
        eng.grant_quota(1.0)
        moved = eng.promote(np.array([20, 21]), epoch=1)
        assert moved == 2
        stats = eng.drain_stats()
        assert stats.demoted_pages >= 2
        assert topo.fast_node.tier.used_pages <= 10

    def test_capacity_accounting_consistent(self):
        topo, pt, lru, eng = build(fast=10, slow=100, num_pages=60)
        topo.first_touch_allocate(pt, np.arange(60))
        lru.touch(np.arange(10), epoch=0)
        eng.grant_quota(1.0)
        eng.promote(np.arange(20, 40), epoch=1)
        occ = pt.occupancy()
        assert occ.get(0, 0) == topo[0].tier.used_pages
        assert occ.get(1, 0) == topo[1].tier.used_pages


class TestApplyPromotions:
    def test_veto_keeps_what_it_approves(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))  # 100 fast, 50 slow
        eng.grant_quota(1.0)
        vetoed = []

        def veto(pages):
            vetoed.append(pages)
            return pages[pages < 125]

        promotion = eng.apply_promotions(np.array([120, 130]), epoch=0, veto=veto)
        assert promotion == Promotion(pages=1, base_pages=1)
        assert pt.nodes_of(np.array([120, 130])).tolist() == [0, 1]
        assert [v.tolist() for v in vetoed] == [[120, 130]]

    def test_fully_vetoed_round_moves_nothing(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        promotion = eng.apply_promotions(np.array([120]), epoch=0, veto=lambda pages: pages[:0])
        assert promotion == Promotion()
        assert eng.stats == MigrationStats()

    def test_counts_ping_pong_of_this_call_only(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        eng.promote(np.array([120]), epoch=0)
        eng.demote(np.array([120]))
        promotion = eng.apply_promotions(np.array([120, 130]), epoch=1)
        assert promotion == Promotion(pages=2, base_pages=2, ping_pong=1)
        assert eng.stats.promoted_pages == 3

    def test_huge_frame_counts_its_members(self):
        topo, pt, lru, eng = build(fast=600, slow=1200, num_pages=1024)
        pt.map_pages(np.arange(1024), 1)
        topo[1].tier.reserve(1024)
        eng.grant_quota(1.0)
        frame = PAGES_PER_HUGE_PAGE
        promotion = eng.apply_promotions(np.array([frame + 1, frame + 2, 7]), epoch=0, thp=True)
        assert promotion == Promotion(pages=PAGES_PER_HUGE_PAGE + 1, base_pages=1, huge_pages=1)


class TestKeepWatermark:
    def test_restores_the_target_below_the_watermark(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))  # fast node full
        lru.touch(np.arange(100), epoch=0)
        assert eng.keep_watermark(0.05, 0.10) == 10
        assert topo.fast_node.tier.free_pages == 10
        assert eng.stats.demoted_pages == 10

    def test_nothing_moves_at_the_watermark(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(95))  # 5 of 100 fast pages free
        assert eng.keep_watermark(0.05, 0.50) == 0
        assert topo.fast_node.tier.free_pages == 5


class TestQuota:
    def test_quota_limits_promotions(self):
        topo, pt, lru, eng = build(fast=100, slow=200, num_pages=250, quota_mbps=1)
        topo.first_touch_allocate(pt, np.arange(250))
        # 1 MB/s * 0.01 s = 10 KB -> 2 pages
        eng.grant_quota(0.01)
        moved = eng.promote(np.arange(100, 150), epoch=0)
        assert moved == 2
        assert eng.stats.quota_dropped_pages == 48

    def test_quota_window_refreshes(self):
        topo, pt, lru, eng = build(quota_mbps=1)
        topo.first_touch_allocate(pt, np.arange(250))
        eng.grant_quota(0.01)
        eng.promote(np.arange(100, 104), epoch=0)
        eng.grant_quota(0.01)
        assert eng.promote(np.arange(110, 112), epoch=1) == 2

    def test_zero_quota_blocks_everything(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(250))
        eng.grant_quota(0.0)
        assert eng.promote(np.arange(100, 120), epoch=0) == 0


class TestDemotion:
    def test_demote_moves_to_slow(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(100))
        eng.grant_quota(1.0)
        assert eng.demote(np.array([5])) == 1
        assert pt.nodes_of(np.array([5])).tolist() == [1]

    def test_demote_sets_pg_demoted(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(100))
        eng.grant_quota(1.0)
        eng.demote(np.array([5]))
        assert pt.demoted_mask(np.array([5])).tolist() == [True]

    def test_demote_ignores_slow_pages(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        assert eng.demote(np.array([120])) == 0


class TestColdestVictims:
    @settings(max_examples=200, deadline=None)
    @given(
        members=st.lists(st.booleans(), min_size=1, max_size=64),
        touched_early=st.sets(st.integers(0, 63)),
        touched_late=st.sets(st.integers(0, 63)),
        count=st.integers(0, 80),
    )
    def test_lru_picks_then_untracked_members_ascending(
        self, members, touched_early, touched_late, count
    ):
        """Reclaim takes the LRU's coldest members first, then pads with
        the members the LRU does not track, in ascending page order."""
        num_pages = len(members)
        _, _, lru, eng = build(num_pages=num_pages)
        for epoch, touched in enumerate((touched_early, touched_late)):
            lru.touch(np.array(sorted(p for p in touched if p < num_pages), dtype=np.int64), epoch)
        member_mask = np.array(members)
        picks = lru.coldest(count, member_mask)
        untracked = np.setdiff1d(np.flatnonzero(member_mask), picks)
        victims = eng.coldest_victims(count, member_mask)
        np.testing.assert_array_equal(victims, np.concatenate([picks, untracked])[:count])
        assert victims.size == min(count, int(member_mask.sum()))
        assert member_mask[victims].all()

    @settings(max_examples=200, deadline=None)
    @given(
        fast_pages=st.sets(st.integers(0, 63), max_size=48),
        touched_early=st.sets(st.integers(0, 63)),
        touched_late=st.sets(st.integers(0, 63)),
        members=st.none() | st.lists(st.booleans(), min_size=64, max_size=64),
        count=st.integers(0, 80),
    )
    def test_victims_are_distinct_fast_pages(
        self, fast_pages, touched_early, touched_late, members, count
    ):
        """Reclaim demotes the victims without deduplicating them: the
        inactive picks, the active picks and the untracked pad are
        disjoint, with or without a member mask."""
        _, pt, lru, eng = build(fast=64, slow=64, num_pages=64)
        pt.map_pages(np.arange(64), 1)
        pt.map_pages(np.array(sorted(fast_pages), dtype=np.int64), 0)
        # touched in both epochs: active; in one: inactive
        for epoch, touched in enumerate((touched_early, touched_late)):
            lru.touch(np.array(sorted(touched & fast_pages), dtype=np.int64), epoch)
        on_fast = pt.node_of_page == 0
        member_mask = None if members is None else np.array(members) & on_fast
        eligible = on_fast if member_mask is None else member_mask
        victims = eng.coldest_victims(count, member_mask)
        assert np.unique(victims).size == victims.size
        assert eligible[victims].all()
        assert victims.size == min(count, int(eligible.sum()))


class TestPingPong:
    def test_ping_pong_counted(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(100))
        eng.grant_quota(10.0)
        eng.demote(np.array([5]))
        eng.promote(np.array([5]), epoch=1)
        assert eng.stats.ping_pong_events == 1
        # flag cleared after promotion: second cycle counts again
        eng.demote(np.array([5]))
        eng.promote(np.array([5]), epoch=2)
        assert eng.stats.ping_pong_events == 2

    def test_fresh_promotion_not_ping_pong(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(10.0)
        eng.promote(np.array([120]), epoch=0)
        assert eng.stats.ping_pong_events == 0


class TestHugePages:
    def test_promote_huge_moves_all_base_pages(self):
        num = PAGES_PER_HUGE_PAGE * 4
        topo, pt, lru, eng = build(
            fast=PAGES_PER_HUGE_PAGE * 2, slow=PAGES_PER_HUGE_PAGE * 4, num_pages=num
        )
        topo.first_touch_allocate(pt, np.arange(num))
        eng.grant_quota(10.0)
        # huge page 3 lives entirely on the slow node
        moved = eng.promote_huge(np.array([3]), epoch=0)
        assert moved == 1
        span = np.arange(3 * PAGES_PER_HUGE_PAGE, 4 * PAGES_PER_HUGE_PAGE)
        assert (pt.nodes_of(span) == 0).all()
        assert eng.stats.promoted_huge_pages == 1
        assert eng.stats.promoted_pages == PAGES_PER_HUGE_PAGE

    def test_promote_huge_quota(self):
        num = PAGES_PER_HUGE_PAGE * 4
        topo, pt, lru, eng = build(
            fast=PAGES_PER_HUGE_PAGE * 3,
            slow=PAGES_PER_HUGE_PAGE * 4,
            num_pages=num,
            quota_mbps=1,
        )
        topo.first_touch_allocate(pt, np.arange(num))
        eng.grant_quota(0.5)  # 0.5 MB budget < one 2 MB huge page
        assert eng.promote_huge(np.array([3]), epoch=0) == 0


class TestStatsDrain:
    def test_drain_resets(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        eng.promote(np.array([120]), epoch=0)
        snap = eng.drain_stats()
        assert snap.promoted_pages == 1
        assert eng.stats.promoted_pages == 0
        assert snap.stall_ns > 0

    def test_double_drain_in_one_window_raises(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        eng.promote(np.array([120]), epoch=0)
        eng.drain_stats()
        with pytest.raises(RuntimeError, match="drained twice"):
            eng.drain_stats()

    def test_grant_quota_reopens_the_window(self):
        topo, pt, lru, eng = build()
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        eng.drain_stats()
        eng.grant_quota(1.0)  # new epoch, new window
        eng.promote(np.array([120]), epoch=1)
        assert eng.drain_stats().promoted_pages == 1
