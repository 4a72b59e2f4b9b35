"""Full-stack integration tests: engine + policy + workload invariants.

These run every policy over several workloads and check the invariants
that must hold regardless of policy behaviour: no page is ever lost or
duplicated, tier accounting matches the page table, time only moves
forward, and reports are internally consistent.
"""

import pytest

from repro.experiments.config import SMOKE_CONFIG
from repro.experiments.runner import run_one
from repro.policies import POLICY_NAMES

WORKLOADS = ("gups", "pagerank", "deathstarbench")


def check_invariants(report):
    engine = report.annotations["engine"]
    page_table = engine.page_table
    # 1. every page is mapped exactly once, to a real node
    nodes = page_table.node_of_page
    assert (nodes >= 0).all(), "unmapped pages after a full run"
    assert nodes.max() < len(engine.topology)
    # 2. tier accounting agrees with the page table
    occupancy = page_table.occupancy()
    for node in engine.topology.nodes:
        assert occupancy.get(node.node_id, 0) == node.tier.used_pages, node.name
        assert 0 <= node.tier.used_pages <= node.tier.capacity_pages
    # 3. time moves forward and durations are positive
    times = [e.sim_time_ns for e in report.epochs]
    assert times == sorted(times)
    assert all(e.duration_ns > 0 for e in report.epochs)
    # 4. miss accounting is consistent
    for epoch in report.epochs:
        assert epoch.fast_hits + epoch.slow_hits == epoch.llc_misses
        assert epoch.llc_misses <= epoch.accesses
    # 5. overhead and stalls are non-negative
    assert report.total_profiling_overhead_ns >= 0
    assert all(e.migration_stall_ns >= 0 for e in report.epochs)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_invariants_hold_for_every_pair(workload, policy):
    report = run_one(workload, policy, SMOKE_CONFIG, keep_engine=True)
    check_invariants(report)


def test_migration_counts_match_engine_totals():
    report = run_one("gups", "neomem", SMOKE_CONFIG)
    # per-epoch promote/demote sums equal the report totals
    assert report.total_promoted_pages == sum(e.promoted_pages for e in report.epochs)
    assert report.total_demoted_pages == sum(e.demoted_pages for e in report.epochs)


def test_neomem_and_fixed_threshold_share_machinery():
    dynamic = run_one("gups", "neomem", SMOKE_CONFIG)
    fixed = run_one("gups", "neomem-fixed-32", SMOKE_CONFIG, keep_engine=True)
    check_invariants(fixed)
    assert fixed.policy == "neomem-fixed-32"
    assert dynamic.policy == "neomem"


def test_thp_run_invariants():
    from repro.experiments.runner import build_engine, build_workload

    config = SMOKE_CONFIG
    workload = build_workload("pagerank", config)
    engine = build_engine(
        workload,
        "neomem",
        config,
        policy_kwargs={"neomem_config": config.neomem_config(thp=True)},
    )
    report = engine.run()
    report.annotations["engine"] = engine
    check_invariants(report)


def test_three_tier_topology():
    """A DDR + CXL-DRAM + CXL-PCM machine runs and keeps invariants."""
    from repro.experiments.runner import build_workload
    from repro.memsim.engine import SimulationEngine
    from repro.memsim.tiers import CXL_DRAM_PROTO, CXL_PCM, DDR5_LOCAL
    from repro.policies import make_policy

    config = SMOKE_CONFIG
    workload = build_workload("silo", config)
    n = workload.num_pages
    policy = make_policy("neomem", n, neomem_config=config.neomem_config(),
                         neoprof_config=config.neoprof_config())
    engine = SimulationEngine(
        workload,
        [(DDR5_LOCAL, n // 3), (CXL_DRAM_PROTO, n // 2), (CXL_PCM, n)],
        policy,
        config.engine_config(),
    )
    report = engine.run()
    report.annotations["engine"] = engine
    check_invariants(report)
    # the PCM node absorbed spill and the device saw slow traffic
    assert engine.topology[2].tier.used_pages > 0
