"""Inclusive vs exclusive tier semantics: shadows, free drops, conservation."""
# repro: noqa-file TEL003 — stats are drained and read directly to assert costs

import numpy as np
import pytest

from repro.memsim.lru2q import Lru2Q
from repro.memsim.migration import MigrationConfig, MigrationEngine
from repro.memsim.numa import NumaTopology
from repro.memsim.page_table import PageTable
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL


def build(tier_mode, fast=100, slow=300, num_pages=250):
    topo = NumaTopology([(DDR5_LOCAL, fast), (CXL_DRAM_PROTO, slow)])
    pt = PageTable(num_pages)
    lru = Lru2Q(num_pages)
    cfg = MigrationConfig(quota_bytes_per_s=1e12, fast_free_target=0.0, tier_mode=tier_mode)
    eng = MigrationEngine(topo, pt, lru, cfg)
    return topo, pt, lru, eng


def used_by_node(topo) -> list[int]:
    return [node.tier.used_pages for node in topo.nodes]


def mapped_count(pt) -> int:
    return int((pt.node_of_page >= 0).sum())


def shadow_count(eng) -> int:
    return int((eng.shadow_node >= 0).sum())


def check_conservation(topo, pt, eng) -> None:
    """The single capacity invariant both modes must uphold: every
    reserved frame is either a mapped page's residence or a live
    inclusive shadow copy."""
    assert sum(used_by_node(topo)) == mapped_count(pt) + shadow_count(eng)


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="tier_mode"):
            MigrationConfig(tier_mode="sideways")

    def test_default_is_exclusive(self):
        assert MigrationConfig().tier_mode == "exclusive"


class TestExclusive:
    def test_promote_releases_the_slow_frame(self):
        topo, pt, lru, eng = build("exclusive")
        topo.first_touch_allocate(pt, np.arange(150))  # 100 fast, 50 slow
        slow_used = topo.nodes[1].tier.used_pages
        eng.grant_quota(1.0)
        lru.touch(np.arange(100), epoch=0)
        assert eng.promote(np.array([120, 130]), epoch=1) == 2
        # exclusive: residency moved, no frame is double-booked
        assert topo.nodes[1].tier.used_pages <= slow_used
        assert shadow_count(eng) == 0
        check_conservation(topo, pt, eng)

    def test_demote_always_pays_the_copy(self):
        topo, pt, lru, eng = build("exclusive")
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        assert eng.demote(np.array([3, 4, 5])) == 3
        stats = eng.drain_stats()
        assert stats.demoted_pages == 3
        assert stats.stall_ns == 3 * eng.config.page_copy_ns
        check_conservation(topo, pt, eng)


class TestInclusive:
    def test_promote_keeps_the_slow_frame_as_shadow(self):
        topo, pt, lru, eng = build("inclusive")
        topo.first_touch_allocate(pt, np.arange(150))
        slow_used = topo.nodes[1].tier.used_pages
        eng.grant_quota(1.0)
        lru.touch(np.arange(100), epoch=0)
        assert eng.promote(np.array([120, 130]), epoch=1) == 2
        # the slow frames stay reserved (capacity duplication) and the
        # shadow map remembers where each copy lives
        assert topo.nodes[1].tier.used_pages >= slow_used
        assert eng.shadow_node[120] == 1 and eng.shadow_node[130] == 1
        assert pt.nodes_of(np.array([120, 130])).tolist() == [0, 0]
        check_conservation(topo, pt, eng)

    def test_promotion_cost_is_not_discounted(self):
        # inclusion saves the *demotion* copy, never the promotion copy
        topo, pt, lru, eng = build("inclusive")
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        lru.touch(np.arange(100), epoch=0)
        eng.promote(np.array([120, 130]), epoch=1)
        assert eng.stats.stall_ns >= 2 * eng.config.page_copy_ns

    def test_shadowed_demotion_is_a_free_drop(self):
        topo, pt, lru, eng = build("inclusive")
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        lru.touch(np.arange(100), epoch=0)
        eng.promote(np.array([120, 130]), epoch=1)
        promote_stall = eng.stats.stall_ns
        budget_before = eng._window_budget_bytes
        assert eng.demote(np.array([120, 130])) == 2
        stats = eng.drain_stats()
        # no copy stall, no quota charge: the slow copy never went stale
        assert stats.stall_ns == promote_stall
        assert eng._window_budget_bytes == budget_before
        # the pages are back on their shadow node, shadows cleared
        assert pt.nodes_of(np.array([120, 130])).tolist() == [1, 1]
        assert shadow_count(eng) == 0
        assert pt.demoted_mask(np.array([120, 130])).all()
        check_conservation(topo, pt, eng)

    def test_unshadowed_demotion_still_copies(self):
        topo, pt, lru, eng = build("inclusive")
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        # pages 3-5 were first-touch allocated to fast, never promoted:
        # no shadow exists, so demoting them is a real copy
        assert eng.demote(np.array([3, 4, 5])) == 3
        stats = eng.drain_stats()
        assert stats.stall_ns == 3 * eng.config.page_copy_ns
        check_conservation(topo, pt, eng)

    def test_repromoted_drop_counts_ping_pong(self):
        topo, pt, lru, eng = build("inclusive")
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        lru.touch(np.arange(100), epoch=0)
        eng.promote(np.array([120]), epoch=1)
        eng.demote(np.array([120]))
        eng.promote(np.array([120]), epoch=2)
        assert eng.stats.ping_pong_events == 1
        check_conservation(topo, pt, eng)

    def test_mixed_demotion_batch_splits_paths(self):
        topo, pt, lru, eng = build("inclusive")
        topo.first_touch_allocate(pt, np.arange(150))
        eng.grant_quota(1.0)
        lru.touch(np.arange(100), epoch=0)
        eng.promote(np.array([120]), epoch=1)
        stall_before = eng.stats.stall_ns
        # one shadowed page (free drop) + one first-touch page (copy)
        assert eng.demote(np.array([120, 7])) == 2
        stats = eng.drain_stats()
        assert stats.demoted_pages >= 2  # may include _make_room victims
        assert stats.stall_ns == stall_before + 1 * eng.config.page_copy_ns
        check_conservation(topo, pt, eng)

    def test_shadow_view_is_read_only(self):
        _, _, _, eng = build("inclusive")
        with pytest.raises(ValueError):
            eng.shadow_node[0] = 3


class TestConservationUnderChurn:
    @pytest.mark.parametrize("tier_mode", ["exclusive", "inclusive"])
    def test_random_promote_demote_churn(self, tier_mode):
        topo, pt, lru, eng = build(tier_mode, fast=60, slow=400, num_pages=250)
        topo.first_touch_allocate(pt, np.arange(250))
        rng = np.random.default_rng(11)
        lru.touch(np.arange(60), epoch=0)
        for epoch in range(1, 30):
            eng.grant_quota(1.0)
            eng.promote(rng.integers(0, 250, size=20), epoch=epoch)
            eng.demote(rng.integers(0, 250, size=12))
            eng.drain_stats()
            check_conservation(topo, pt, eng)
            # fast-resident pages never carry a stale shadow of themselves
            fast_resident = pt.node_of_page == 0
            if tier_mode == "exclusive":
                assert shadow_count(eng) == 0
            else:
                assert (eng.shadow_node[~fast_resident] == -1).all()
            lru.touch(rng.integers(0, 250, size=30), epoch=epoch)
