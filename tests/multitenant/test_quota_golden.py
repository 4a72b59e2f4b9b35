"""Quota'd co-location pinned by value: arbiter, reclaim and THP vetoes.

Three tenants share one machine with fast-tier quotas of 5 %, none and
10 %, under metrics telemetry.  Each case runs one policy in one policy
scope and digests the machine report, every tenant report and the
deterministic telemetry counters with the differential harness's
``report_digest``.  The committed fixture holds one SHA-256 per digest,
so a change to any epoch counter, timing value or decision counter of a
quota'd run fails here under the name of the report that moved.  Quota
reclaim is charged at the serving policy's per-page syscall cost, so the
fixture also pins that charge.

Regenerating the fixture (only when a behaviour change is intentional)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/multitenant/test_quota_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import partial
from pathlib import Path

import pytest

from repro.experiments.colocation import make_tenant_specs
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_policy, topology_for
from repro.multitenant import ColocationEngine, QosConfig
from repro.telemetry import configure, deterministic_counters
from repro.workloads import make_workload
from tests.integration.test_differential import report_digest

FIXTURE = Path(__file__).parent / "golden" / "quota-colocation.json"

#: set to regenerate the committed fixture instead of comparing
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")

CONFIG = ExperimentConfig(num_pages=4096, batches=6, batch_size=2048)
QUOTAS = (0.05, None, 0.1)

#: (label, registry name, policy_kwargs builder)
POLICIES = (
    ("neomem", "neomem", None),
    ("neomem-thp", "neomem", lambda cfg: {"neomem_config": cfg.neomem_config(thp=True)}),
    ("tpp", "tpp", None),
    ("pebs", "pebs", None),
)
SCOPES = ("shared", "per-tenant")
CASES = [(policy, scope) for policy in POLICIES for scope in SCOPES]


def _case_id(case) -> str:
    (label, _, _), scope = case
    return f"{label}-{scope}"


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(registry_name: str, kwargs_builder, scope: str):
    specs = make_tenant_specs(3, CONFIG, fast_quota_fractions=list(QUOTAS))
    tenants = [
        (
            spec,
            make_workload(
                spec.workload,
                num_pages=spec.num_pages,
                total_batches=CONFIG.batches,
                batch_size=CONFIG.batch_size,
            ),
        )
        for spec in specs
    ]
    total_pages = sum(spec.num_pages for spec in specs)
    policy_kwargs = kwargs_builder(CONFIG) if kwargs_builder is not None else None
    engine = ColocationEngine(
        tenants,
        topology_for(total_pages, CONFIG),
        policy_factory=partial(build_policy, registry_name, total_pages, CONFIG, policy_kwargs),
        config=CONFIG.engine_config(),
        qos=QosConfig(policy_scope=scope),
    )
    return engine.run()


def case_digest(report) -> dict:
    """One SHA-256 per report, plus the co-located telemetry's."""
    telemetry = report.annotations["telemetry"]
    registries = [telemetry["machine"], *telemetry["tenants"].values()]
    return {
        "machine": _sha(report_digest(report.machine)),
        "tenants": {name: _sha(report_digest(tr.report)) for name, tr in report.tenants.items()},
        "telemetry": _sha(
            [
                {
                    "counters": deterministic_counters(snap["counters"]),
                    "histograms": snap["histograms"],
                }
                for snap in registries
            ]
        ),
    }


@pytest.fixture(scope="module", autouse=True)
def _metrics_telemetry():
    configure("metrics")
    yield
    configure("off")


@pytest.fixture(scope="module")
def golden():
    if REGEN:
        return {}
    assert FIXTURE.exists(), f"missing {FIXTURE.name}; generate with REPRO_REGEN_GOLDEN=1"
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_quota_colocation_matches_golden(case, golden):
    (_, registry_name, kwargs_builder), scope = case
    digest = case_digest(run_case(registry_name, kwargs_builder, scope))
    if REGEN:
        stored = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        stored[_case_id(case)] = digest
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(stored, sort_keys=True, indent=1) + "\n")
        return
    expected = golden[_case_id(case)]
    assert digest["machine"] == expected["machine"], "machine report diverged"
    assert digest["tenants"] == expected["tenants"], "a tenant report diverged"
    assert digest["telemetry"] == expected["telemetry"], "telemetry counters diverged"


def test_fixture_has_no_strays(golden):
    """Every stored case is a live case."""
    if REGEN:
        pytest.skip("regenerating")
    assert set(golden) == {_case_id(case) for case in CASES}
