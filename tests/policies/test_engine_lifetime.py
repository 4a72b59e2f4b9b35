"""A finished engine is freed by reference counting alone.

No policy is bound to the engine or holds any part of it, and a
co-location's arbiter hands its quota filter to each epoch's view
instead of installing it on the policies, so nothing forms a reference
cycle: the engine, its page table, the arbiter, every policy and
NeoProf's sketches go as soon as the last outside reference does,
without waiting for a full garbage collection.
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


def colocation_parts(engine):
    """A co-location engine's simulation engine, arbiter, distinct
    policies and their NeoProf sketches."""
    policies = list({id(policy): policy for policy in engine.arbiter.policies.values()}.values())
    sketches = [policy.device.detector.sketch for policy in policies]
    return [engine.inner, engine.arbiter, *policies, *sketches]


def assert_freed_on_release(engine):
    """Run ``engine``, drop it, and check every engine object is gone;
    return how many objects were checked."""
    engine.run()
    refs = [weakref.ref(engine)]
    if hasattr(engine, "inner"):
        refs += [weakref.ref(part) for part in colocation_parts(engine)]
    del engine
    assert [ref() for ref in refs] == [None] * len(refs)
    return len(refs)


@pytest.mark.parametrize("policy", POLICY_NAMES + ("neomem-fixed-8",))
def test_registry_policy_engine(no_gc, policy):
    assert_freed_on_release(build_engine(build_workload("gups", CONFIG), policy, CONFIG))


def test_lookahead_engine(no_gc):
    assert_freed_on_release(build_engine(build_workload("kvcache", CONFIG), "lookahead", CONFIG))


@pytest.mark.parametrize("scope", ["shared", "per-tenant"])
def test_quota_colocation_engine(no_gc, scope):
    specs = make_tenant_specs(3, CONFIG, fast_quota_fractions=QUOTAS)
    qos = QosConfig(policy_scope=scope)
    checked = assert_freed_on_release(build_colocation(specs, "neomem", CONFIG, qos=qos))
    assert checked == (5 if scope == "shared" else 9)


@pytest.mark.parametrize("factory", [_profile_neoprof, _profiling_only_policy])
def test_profile_only_policy_engine(no_gc, factory):
    workload = build_workload("gups", CONFIG)
    policy = factory(workload.num_pages, CONFIG)
    assert_freed_on_release(build_engine(workload, policy.name, CONFIG, policy=policy))
