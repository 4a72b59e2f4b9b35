"""Co-location engine tests: every policy end-to-end, conservation,
QoS quota enforcement, and machine-level invariants."""

# repro: noqa-file PKL002 — engines are built in-process here; factories never cross a pickle boundary

import numpy as np
import pytest

from repro.experiments.colocation import (
    build_colocation,
    make_tenant_specs,
)
from repro.experiments.config import ExperimentConfig
from repro.multitenant import QosConfig, TenantSpec
from repro.policies import POLICY_NAMES

#: small but non-trivial: two tenants, ~4K pages each, 8 epochs each
TINY = ExperimentConfig(num_pages=8192, batches=8, batch_size=8192)


def run_mix(policy, config=TINY, num_tenants=2, scheduler="round-robin", qos=None, specs=None):
    specs = specs or make_tenant_specs(num_tenants, config)
    engine = build_colocation(specs, policy, config, scheduler, qos)
    return engine, engine.run()


def fast_resident(engine, tenant):
    """Pages of ``tenant``'s window resident on the fast node (node 0)."""
    ns = engine.layout.namespace(tenant)
    return int((engine.inner.page_table.node_of_page[ns.base : ns.end] == 0).sum())


def fast_quota(engine, fraction):
    """The fast-tier allowance a quota fraction grants, in pages."""
    return int(fraction * engine.inner.topology.fast_node.tier.capacity_pages)


def check_machine_invariants(engine):
    """The shared machine must satisfy the single-tenant invariants."""
    page_table = engine.inner.page_table
    nodes = page_table.node_of_page
    assert (nodes >= 0).all(), "unmapped pages after a full run"
    occupancy = page_table.occupancy()
    for node in engine.inner.topology.nodes:
        assert occupancy.get(node.node_id, 0) == node.tier.used_pages, node.name
        assert 0 <= node.tier.used_pages <= node.tier.capacity_pages


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_every_policy_runs_end_to_end(policy):
    engine, report = run_mix(policy)
    check_machine_invariants(engine)
    report.verify_conservation()
    assert len(report.tenants) == 2
    for tenant in report.tenants.values():
        assert len(tenant.report.epochs) == TINY.batches
        assert tenant.report.total_accesses == TINY.batches * TINY.batch_size


@pytest.mark.parametrize("scheduler", ("round-robin", "weighted-share", "priority"))
def test_every_scheduler_runs_end_to_end(scheduler):
    specs = make_tenant_specs(3, TINY, weights=[2.0, 1.0, 1.0], priorities=[1, 0, 0])
    engine, report = run_mix("pebs", specs=specs, scheduler=scheduler)
    check_machine_invariants(engine)
    report.verify_conservation()


def test_per_tenant_metrics_partition_machine_metrics():
    engine, report = run_mix("neomem", num_tenants=3)
    # exact partition: every machine epoch appears in exactly one tenant
    machine_ids = [id(e) for e in report.machine.epochs]
    tenant_ids = [id(e) for tr in report.tenants.values() for e in tr.report.epochs]
    assert sorted(machine_ids) == sorted(tenant_ids)
    # and the aggregated counters agree (also covered by verify_conservation)
    assert report.machine.total_accesses == sum(
        tr.report.total_accesses for tr in report.tenants.values()
    )
    assert report.machine.total_slow_traffic_bytes == sum(
        tr.report.total_slow_traffic_bytes for tr in report.tenants.values()
    )


def test_tenant_pages_stay_inside_their_namespace():
    """No migration or allocation ever maps a page outside [0, total)."""
    engine, _ = run_mix("neomem")
    total = engine.layout.total_pages
    assert engine.inner.page_table.num_pages == total
    for ns in engine.layout:
        # each namespace's pages are fully mapped
        assert (engine.inner.page_table.node_of_page[ns.base : ns.end] >= 0).all()


def test_contention_slows_tenants_down():
    """Two tenants on one machine run slower per batch than solo."""
    config = TINY
    specs = make_tenant_specs(2, config)
    engine, report = run_mix("neomem", specs=specs)
    from repro.experiments.runner import topology_for
    from repro.multitenant import ColocationEngine
    from repro.experiments.runner import build_policy
    from repro.workloads import make_workload

    total = sum(s.num_pages for s in specs)
    for spec in specs:
        workload = make_workload(
            spec.workload,
            num_pages=spec.num_pages,
            total_batches=config.batches,
            batch_size=config.batch_size,
        )
        solo = ColocationEngine(
            [(spec, workload)],
            topology_for(total, config),
            policy_factory=lambda p=spec.num_pages: build_policy("neomem", p, config),
            config=config.engine_config(),
        )
        solo_report = solo.run()
        colocated = report.tenants[spec.name].colocated_time_s
        assert colocated > solo_report.machine.total_time_s


class TestFastTierQuota:
    def test_quota_caps_fast_tier_residency(self):
        specs = make_tenant_specs(2, TINY, fast_quota_fractions=[0.1, None])
        engine, report = run_mix("neomem", specs=specs)
        quota = fast_quota(engine, 0.1)
        assert quota > 0
        assert fast_resident(engine, specs[0].name) <= quota
        # the unconstrained tenant is free to exceed that level
        assert fast_resident(engine, specs[1].name) > quota

    def test_zero_quota_pins_tenant_to_cxl(self):
        specs = make_tenant_specs(2, TINY, fast_quota_fractions=[0.0, None])
        engine, report = run_mix("neomem", specs=specs)
        assert fast_resident(engine, specs[0].name) == 0

    @pytest.mark.parametrize("fractions", ([None, None], [0.1, None]))
    def test_no_fraction_means_no_quota(self, fractions):
        """Quotas apply exactly to the tenants whose spec sets a fraction:
        without one, nothing is vetoed and no view carries a filter."""
        specs = make_tenant_specs(2, TINY, fast_quota_fractions=fractions)
        engine = build_colocation(specs, "neomem", TINY)
        policy = engine.arbiter.policies[specs[0].name]
        filters = []

        def spy(view, on_epoch=policy.on_epoch):
            filters.append(view.promotion_filter)
            return on_epoch(view)

        policy.on_epoch = spy
        engine.run()
        assert len(filters) == 2 * TINY.batches
        if fractions[0] is None:
            candidates = np.arange(engine.layout.total_pages)
            np.testing.assert_array_equal(engine.arbiter.quota_filter(candidates), candidates)
            assert filters == [None] * len(filters)
        else:
            assert filters == [engine.arbiter.quota_filter] * len(filters)

    def test_quota_filter_vetoes_only_over_quota_tenants(self):
        specs = make_tenant_specs(2, TINY, fast_quota_fractions=[0.1, None])
        engine = build_colocation(specs, "neomem", TINY)
        engine.run()
        ns0 = engine.layout.namespace(specs[0].name)
        ns1 = engine.layout.namespace(specs[1].name)
        # tenant 0 is at quota after the run; its slow pages get vetoed
        nodes = engine.inner.page_table.node_of_page
        slow0 = ns0.base + np.nonzero(nodes[ns0.base : ns0.end] == 1)[0]
        slow1 = ns1.base + np.nonzero(nodes[ns1.base : ns1.end] == 1)[0]
        candidates = np.concatenate([slow0[:8], slow1[:8]])
        kept = engine.arbiter.quota_filter(candidates)
        assert not ns0.owns(kept).any()
        assert ns1.owns(kept).sum() == min(8, slow1.size)


def _neomem_thp(num_pages):
    from repro.core.daemon import NeoMemConfig, NeoMemDaemon

    return NeoMemDaemon(num_pages, NeoMemConfig(thp=True))


def _tpp_thp(num_pages):
    from repro.policies import TppPolicy

    return TppPolicy(num_pages, thp=True)


class TestThpQuotaInteraction:
    @pytest.mark.parametrize("make_thp_policy", (_neomem_thp, _tpp_thp), ids=("neomem", "tpp"))
    def test_thp_promotion_respects_promotion_filter_across_spans(self, make_thp_policy):
        """A huge page straddling a veto boundary must not migrate whole.

        Namespace windows need not align to 2 MB frames; no THP policy
        may let a neighbour's hot reports drag a quota'd tenant's pages
        onto the fast tier inside one huge-page migration.
        """
        from repro.memsim.address import PAGES_PER_HUGE_PAGE
        from repro.memsim.engine import EngineConfig, SimulationEngine
        from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL

        num_pages = 4 * PAGES_PER_HUGE_PAGE

        class Space:
            name = "stub"

            def __init__(self, n):
                self.num_pages = n

            def next_batch(self, rng):
                return None

        policy = make_thp_policy(num_pages)
        engine = SimulationEngine(
            Space(num_pages),
            [(DDR5_LOCAL, num_pages), (CXL_DRAM_PROTO, num_pages)],
            policy,
            EngineConfig(),
        )
        # the warm-up put everything on the fast node: move it all down
        assert (engine.page_table.node_of_page == 0).all()
        engine.page_table.map_pages(np.arange(num_pages), 1)
        engine.topology[0].tier.release(num_pages)
        engine.topology[1].tier.reserve(num_pages)
        # veto boundary mid-frame: huge page 1 spans [512, 1024), the
        # "quota'd tenant" owns [0, 768)
        boundary = PAGES_PER_HUGE_PAGE + PAGES_PER_HUGE_PAGE // 2
        engine.migration.grant_quota(10.0)

        def veto(pages):
            return pages[pages >= boundary]

        hot = np.arange(boundary + 32, boundary + 40)  # inside huge page 1
        engine.migration.apply_promotions(hot, epoch=0, thp=policy.thp, veto=veto)

        nodes = engine.page_table.node_of_page
        assert (nodes[:boundary] == 1).all(), "vetoed tenant pages migrated"
        # the surviving reports still moved up as base pages
        assert (nodes[hot] == 0).all()
        assert engine.migration.stats.promoted_huge_pages == 0

        # a frame wholly past the boundary still migrates whole
        hot2 = np.arange(3 * PAGES_PER_HUGE_PAGE, 3 * PAGES_PER_HUGE_PAGE + 4)
        engine.migration.apply_promotions(hot2, epoch=0, thp=policy.thp, veto=veto)
        span = slice(3 * PAGES_PER_HUGE_PAGE, 4 * PAGES_PER_HUGE_PAGE)
        assert (engine.page_table.node_of_page[span] == 0).all()
        assert engine.migration.stats.promoted_huge_pages == 1


class TestPolicyScopes:
    def test_shared_scope_uses_one_policy_instance(self):
        engine, report = run_mix("neomem", num_tenants=3)
        policies = {id(p) for p in engine.arbiter.policies.values()}
        assert len(policies) == 1
        assert report.machine.policy == "neomem+shared"

    def test_per_tenant_scope_isolates_policy_instances(self):
        qos = QosConfig(policy_scope="per-tenant")
        engine, report = run_mix("neomem", num_tenants=3, qos=qos)
        policies = {id(p) for p in engine.arbiter.policies.values()}
        assert len(policies) == 3
        assert report.machine.policy == "neomem+per-tenant"
        report.verify_conservation()

    def test_per_tenant_scope_runs_for_baseline_policy(self):
        qos = QosConfig(policy_scope="per-tenant")
        engine, report = run_mix("pebs", num_tenants=2, qos=qos)
        report.verify_conservation()

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            QosConfig(policy_scope="global")


class TestPrefill:
    @pytest.mark.parametrize("num_tenants", (1, 3))
    def test_mix_warms_like_one_engine_of_the_combined_size(self, num_tenants):
        """The tenant mix's warm-up is the single-tenant warm-up over the
        combined address space: same placement, same tier occupancy."""
        from repro.experiments.runner import build_engine, build_workload

        specs = make_tenant_specs(num_tenants, TINY)
        colocated = build_colocation(specs, "neomem", TINY)
        total = colocated.layout.total_pages
        single = build_engine(build_workload("gups", TINY, num_pages=total), "neomem", TINY)
        np.testing.assert_array_equal(
            colocated.inner.page_table.node_of_page, single.page_table.node_of_page
        )
        assert (single.page_table.node_of_page >= 0).all()
        for mixed, alone in zip(colocated.inner.topology.nodes, single.topology.nodes):
            assert mixed.tier.used_pages == alone.tier.used_pages

    def test_each_tenant_gets_a_fast_share_in_proportion_to_its_rss(self):
        """One permutation interleaves every tenant's pages, so each holds
        about the fast tier's share of its own RSS, as if their init
        phases ran concurrently."""
        sizes = (1024, 2048, 5120)
        specs = [TenantSpec(f"t{i}", "gups", pages) for i, pages in enumerate(sizes)]
        engine = build_colocation(specs, "neomem", TINY)
        fast = engine.inner.topology.fast_node.tier
        assert fast.used_pages == fast.capacity_pages
        share = fast.capacity_pages / engine.layout.total_pages
        for spec in specs:
            held = fast_resident(engine, spec.name) / spec.num_pages
            assert held == pytest.approx(share, abs=0.05)


class TestConstruction:
    def test_rss_mismatch_rejected(self):
        from repro.workloads import make_workload
        spec = TenantSpec("t0", "gups", 2048)
        workload = make_workload("gups", num_pages=1024, total_batches=4, batch_size=1024)
        from repro.multitenant import ColocationEngine
        from repro.experiments.runner import topology_for
        with pytest.raises(ValueError, match="RSS"):
            ColocationEngine(
                [(spec, workload)],
                topology_for(2048, TINY),
                policy_factory=lambda: None,
            )

    def test_empty_mix_rejected(self):
        from repro.multitenant import ColocationEngine
        with pytest.raises(ValueError):
            ColocationEngine([], [], policy_factory=lambda: None)

    def test_combined_rss_must_fit_topology(self):
        specs = make_tenant_specs(2, TINY)
        from repro.multitenant import ColocationEngine
        from repro.experiments.runner import build_policy
        from repro.workloads import make_workload
        from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL
        tenants = [
            (s, make_workload(s.workload, num_pages=s.num_pages, total_batches=4, batch_size=1024))
            for s in specs
        ]
        with pytest.raises(MemoryError):
            ColocationEngine(
                tenants,
                [(DDR5_LOCAL, 64), (CXL_DRAM_PROTO, 64)],
                policy_factory=lambda: build_policy("first-touch", 8192, TINY),
            )


class TestFactoryPicklability:
    """Regression for the PKL002 fix in experiments/colocation.py: the
    factories it hands to the arbiter were lambdas, which would have
    broken the moment a colocation JobSpec carried one across a process
    boundary.  They are now partials of module-level callables and must
    survive a pickle round trip producing an equivalent policy."""

    def test_colocation_policy_factory_round_trips(self):
        import pickle
        from functools import partial

        from repro.experiments.runner import build_policy

        factory = partial(build_policy, "neomem", TINY.num_pages, TINY)
        clone = pickle.loads(pickle.dumps(factory))
        assert type(clone()) is type(factory())

    def test_build_colocation_uses_no_lambda_hooks(self):
        """The analyzer enforces this repo-wide; pin the specific module
        here so the fix cannot quietly regress behind a future noqa."""
        import ast
        import inspect

        import repro.experiments.colocation as colocation

        tree = ast.parse(inspect.getsource(colocation))
        offenders = [
            kw.value.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg in ("policy_factory", "extractor", "runner")
            and isinstance(kw.value, ast.Lambda)
        ]
        assert offenders == []
