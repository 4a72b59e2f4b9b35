"""A finished engine is freed by reference counting alone.

No policy keeps the engine that binds it, so policy and engine form no
reference cycle: the engine, its page table and NeoProf's sketch go as
soon as the last outside reference does, without waiting for a full
garbage collection.
"""

import gc
import weakref

import pytest

from repro.experiments.colocation import build_colocation, make_tenant_specs
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig04 import _profile_neoprof
from repro.experiments.overhead import _profiling_only_policy
from repro.experiments.runner import build_engine, build_workload
from repro.multitenant import QosConfig
from repro.policies import POLICY_NAMES

CONFIG = ExperimentConfig(num_pages=2048, batches=3, batch_size=1024)
QUOTAS = [0.05, None, 0.1]


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_freed_on_release(engine):
    """Run ``engine``, drop it, and check every engine object is gone."""
    engine.prefill()
    engine.run()
    refs = [weakref.ref(engine)]
    if hasattr(engine, "inner"):  # a co-location engine's simulation engine
        refs.append(weakref.ref(engine.inner))
    del engine
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("policy", POLICY_NAMES + ("neomem-fixed-8",))
def test_registry_policy_engine(no_gc, policy):
    assert_freed_on_release(build_engine(build_workload("gups", CONFIG), policy, CONFIG))


def test_lookahead_engine(no_gc):
    assert_freed_on_release(build_engine(build_workload("kvcache", CONFIG), "lookahead", CONFIG))


@pytest.mark.parametrize("scope", ["shared", "per-tenant"])
def test_quota_colocation_engine(no_gc, scope):
    specs = make_tenant_specs(3, CONFIG, fast_quota_fractions=QUOTAS)
    qos = QosConfig(policy_scope=scope)
    assert_freed_on_release(build_colocation(specs, "neomem", CONFIG, qos=qos))


@pytest.mark.parametrize("factory", [_profile_neoprof, _profiling_only_policy])
def test_profile_only_policy_engine(no_gc, factory):
    workload = build_workload("gups", CONFIG)
    policy = factory(workload.num_pages, CONFIG)
    assert_freed_on_release(build_engine(workload, policy.name, CONFIG, policy=policy))
