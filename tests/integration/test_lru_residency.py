"""The LRU-2Q lists hold only fast-resident pages, after every epoch.

Reclaim relies on it: watermark and headroom reclaim take the coldest
pages of the lists with no fast-node mask, and aging balances the lists
with none.  The engine touches only fast-resident pages, a promotion
lists the pages it maps up, and every move off the fast node forgets
its pages; these runs check the outcome after each epoch of every
policy in both tier modes, and of a quota'd co-location in both policy
scopes.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.experiments.colocation import make_tenant_specs
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_engine, build_policy, build_workload, topology_for
from repro.memsim.lru2q import Lru2Q
from repro.memsim.numa import FAST_NODE
from repro.multitenant import ColocationEngine, QosConfig
from repro.policies import POLICY_NAMES

CONFIG = ExperimentConfig(num_pages=2048, batches=8, batch_size=2048)
TIER_MODES = ("exclusive", "inclusive")

#: (label, registry name, workload, policy_kwargs builder)
POLICIES = tuple((name, name, "silo", None) for name in POLICY_NAMES) + (
    ("neomem-thp", "neomem", "silo", lambda cfg: {"neomem_config": cfg.neomem_config(thp=True)}),
    ("tpp-thp", "tpp", "silo", lambda cfg: {"thp": True}),
    ("lookahead", "lookahead", "kvcache", None),
)


def listed_off_fast(engine) -> int:
    """Pages on the engine's LRU-2Q lists that are not fast-resident."""
    lru, on_fast = engine.lru, engine.page_table.node_of_page == FAST_NODE
    listed = lru.active_count() + lru.inactive_count()
    return listed - lru.active_count(on_fast) - lru.inactive_count(on_fast)


def check_every_epoch(engine) -> list[int]:
    """Count, after each of ``engine``'s steps, its listed pages that
    are off the fast node; returns the list the counts land in."""
    counts: list[int] = []
    step = engine.step

    def checked_step(pages, is_write):
        metrics = step(pages, is_write)
        counts.append(listed_off_fast(engine))
        return metrics

    engine.step = checked_step
    return counts


def run_single(registry_name, workload_name, kwargs_builder, tier_mode):
    config = CONFIG.with_tier_mode(tier_mode)
    workload = build_workload(workload_name, config)
    policy_kwargs = kwargs_builder(config) if kwargs_builder is not None else None
    engine = build_engine(workload, registry_name, config, policy_kwargs=policy_kwargs)
    counts = check_every_epoch(engine)
    report = engine.run()
    return counts, report


def run_colocated(scope, tier_mode):
    config = CONFIG.with_tier_mode(tier_mode)
    specs = make_tenant_specs(3, config, fast_quota_fractions=[0.05, None, 0.1])
    total_pages = sum(spec.num_pages for spec in specs)
    engine = ColocationEngine(
        [(spec, build_workload(spec.workload, config, num_pages=spec.num_pages)) for spec in specs],
        topology_for(total_pages, config),
        policy_factory=partial(build_policy, "neomem", total_pages, config),
        config=config.engine_config(),
        qos=QosConfig(policy_scope=scope),
    )
    counts = check_every_epoch(engine.inner)
    report = engine.run()
    return counts, report.machine


@pytest.mark.parametrize("tier_mode", TIER_MODES)
@pytest.mark.parametrize("case", POLICIES, ids=[case[0] for case in POLICIES])
def test_every_policy_lists_only_fast_pages(case, tier_mode):
    _, registry_name, workload_name, kwargs_builder = case
    counts, report = run_single(registry_name, workload_name, kwargs_builder, tier_mode)
    assert len(counts) == len(report.epochs) == CONFIG.batches
    assert counts == [0] * len(counts)


@pytest.mark.parametrize("tier_mode", TIER_MODES)
@pytest.mark.parametrize("scope", ("shared", "per-tenant"))
def test_quota_colocation_lists_only_fast_pages(scope, tier_mode):
    counts, machine = run_colocated(scope, tier_mode)
    assert len(counts) == len(machine.epochs) == 3 * CONFIG.batches
    assert machine.total_demoted_pages > 0
    assert counts == [0] * len(counts)


def test_a_demotion_that_keeps_its_pages_listed_is_caught(monkeypatch):
    """The check has teeth: with ``forget`` a no-op, demoted pages stay
    listed, and the epoch after the first demotion counts them."""
    monkeypatch.setattr(Lru2Q, "forget", lambda self, pages: None)
    counts, report = run_single("neomem", "silo", None, "exclusive")
    demoted = report.column("demoted_pages")
    assert demoted.sum() > 0
    first = int((demoted > 0).argmax())
    assert counts[first] > 0
