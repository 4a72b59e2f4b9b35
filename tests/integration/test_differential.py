"""Golden-report differential harness: the engine's bit-identity contract.

Every registered policy (plus the THP variants, which exercise the
huge-page migration path) runs over two workloads and two seeds; the
full :class:`~repro.memsim.metrics.SimulationReport` — every per-epoch
metric, the aggregate readouts, and the deterministic telemetry
counters/histograms — is digested to JSON and compared against a
committed golden fixture.

The fixtures are the contract: any engine change that alters a single
epoch counter, migration decision or timing value fails here, loudly,
with the exact field that moved.  Refactors that claim bit-identity
(the structure-of-arrays hot-path work, and anything after it) are
proven by the *same* fixtures passing before and after.

Regenerating fixtures (only when a behaviour change is intentional)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_differential.py

Wall-clock phase timings are excluded from the digest — they are the
only nondeterministic part of a report; everything else is exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_one
from repro.memsim.metrics import EpochMetrics
from repro.policies import POLICY_NAMES
from repro.telemetry import configure, deterministic_counters

GOLDEN_DIR = Path(__file__).parent / "golden"

#: set to regenerate the committed fixtures instead of comparing
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")

#: small enough to run the full grid in seconds, large enough that every
#: policy promotes, demotes and (for THP variants) huge-promotes
DIFF_CONFIG = ExperimentConfig(num_pages=8192, batches=12, batch_size=8192)

WORKLOADS = ("gups", "silo", "kvcache")
SEEDS = (2024, 31337)

#: (fixture label, registry name, policy_kwargs builder) — the registry
#: policies as-is, plus the THP variants built through policy kwargs
VARIANTS = tuple((name, name, None) for name in POLICY_NAMES) + (
    ("neomem-thp", "neomem", lambda cfg: {"neomem_config": cfg.neomem_config(thp=True)}),
    ("tpp-thp", "tpp", lambda cfg: {"thp": True}),
)

CASES = [
    (workload, label, registry_name, kwargs_builder, seed)
    for workload in WORKLOADS
    for (label, registry_name, kwargs_builder) in VARIANTS
    for seed in SEEDS
] + [
    # the KV-cache oracle and the inclusive tier mode are kvcache-only
    # contracts: lookahead's geometry kwargs would be meaningless on the
    # paper workloads, and inclusive shadow drops only matter where a
    # policy actually churns placement
    ("kvcache", "lookahead", "lookahead", None, seed)
    for seed in SEEDS
] + [
    # "-inclusive" in the label switches the config's tier_mode; the
    # fixture locks the shadow-drop accounting (free demotions of
    # still-clean duplicated blocks) down to the epoch counters
    ("kvcache", "lookahead-inclusive", "lookahead", None, seed)
    for seed in SEEDS
]


def _case_id(case) -> str:
    workload, label, _, _, seed = case
    return f"{workload}-{label}-s{seed}"


def report_digest(report) -> dict:
    """Everything deterministic in a SimulationReport, JSON-ready."""
    telemetry = report.annotations.get("telemetry", {})
    epoch_fields = [f.name for f in fields(EpochMetrics)]
    return {
        "workload": report.workload,
        "policy": report.policy,
        "num_epochs": len(report.epochs),
        "epochs": {
            name: [getattr(epoch, name) for epoch in report.epochs]
            for name in epoch_fields
        },
        "aggregates": {
            "total_time_ns": report.total_time_ns,
            "total_accesses": report.total_accesses,
            "total_llc_misses": report.total_llc_misses,
            "total_slow_traffic_bytes": report.total_slow_traffic_bytes,
            "total_promoted_pages": report.total_promoted_pages,
            "total_demoted_pages": report.total_demoted_pages,
            "total_promoted_huge_pages": report.total_promoted_huge_pages,
            "total_ping_pong_events": report.total_ping_pong_events,
            "total_profiling_overhead_ns": report.total_profiling_overhead_ns,
            "throughput_aps": report.throughput_aps,
            "fast_hit_ratio": report.fast_hit_ratio,
        },
        # wall-clock "phases" stay out: they are the one nondeterministic
        # part of a telemetry summary; counters/histograms are exact
        "telemetry": {
            "counters": deterministic_counters(telemetry.get("counters", {})),
            "histograms": telemetry.get("histograms", {}),
        },
    }


def _canonical(digest: dict) -> str:
    return json.dumps(digest, sort_keys=True, indent=1)


@pytest.fixture(scope="module", autouse=True)
def _metrics_telemetry():
    """Counters/histograms ride along in every digested report."""
    configure("metrics")
    yield
    configure("off")


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_matches_golden(case):
    workload, label, registry_name, kwargs_builder, seed = case
    config = ExperimentConfig(
        num_pages=DIFF_CONFIG.num_pages,
        batches=DIFF_CONFIG.batches,
        batch_size=DIFF_CONFIG.batch_size,
        seed=seed,
    )
    if label.endswith("-inclusive"):
        config = config.with_tier_mode("inclusive")
    policy_kwargs = kwargs_builder(config) if kwargs_builder is not None else None
    report = run_one(workload, registry_name, config, policy_kwargs=policy_kwargs)
    digest = report_digest(report)
    path = GOLDEN_DIR / f"{_case_id(case)}.json"

    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(_canonical(digest) + "\n")
        return

    assert path.exists(), (
        f"missing golden fixture {path.name}; generate with "
        "REPRO_REGEN_GOLDEN=1 (only from a commit whose behaviour is "
        "the intended contract)"
    )
    golden = json.loads(path.read_text())
    live = json.loads(_canonical(digest))
    # compare parsed objects first for a readable pytest diff ...
    assert live == golden, f"report diverged from {path.name}"
    # ... then byte-exact canonical text, which also catches int/float
    # type drift that Python equality would forgive (0 == 0.0)
    assert _canonical(digest) == path.read_text().rstrip("\n"), (
        f"report serialization drifted from {path.name} "
        "(values equal but types/formatting changed)"
    )


def test_golden_dir_has_no_strays():
    """Every committed fixture corresponds to a live case (catches
    renamed policies leaving stale contracts behind)."""
    if REGEN or not GOLDEN_DIR.exists():
        pytest.skip("fixtures not present")
    expected = {f"{_case_id(c)}.json" for c in CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected
