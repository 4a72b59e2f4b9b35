"""The benchmark's own tests, at tiny scale.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.checks import evaluate_pass, mark_mismatches
from perfbench.workloads import WORKERS, make_plan

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def outputs():
    return {(w, t): _bench(w, t) for w in WORKERS for t in (0, 1)}


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKERS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(outputs, trace, section):
    for workload in WORKERS:
        table, result = outputs[workload, trace]
        assert result["correct"] and result["failed"] == 0, table
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and unit in line.split() for line in table)
        assert any(line.split()[:1] == ["error_rate"] for line in table)


def test_end_to_end_metrics_are_positive(outputs):
    for workload in WORKERS:
        _, result = outputs[workload, 0]
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_serial_and_pool_grids_digest_alike(outputs):
    serial = outputs["paper-grid", 1][1]["metrics"]
    pool = outputs["paper-grid-pool2", 1][1]["metrics"]
    assert serial["sim.digest"]["value"] == pool["sim.digest"]["value"]
    for name in ("sim.accesses", "sim.llc_misses", "sim.time_s", "sim.promoted_pages"):
        assert serial[name]["value"] == pool[name]["value"]


def test_nudged_epoch_changes_digest_and_fails_the_job():
    plan = make_plan("paper-grid", seed=5, scale="tiny")
    try:
        cold = evaluate_pass(plan, plan.run_pass())
        warm_results = plan.run_pass()
    finally:
        plan.close()
    report = warm_results[0]
    report.epochs[0].duration_ns += 1.0
    warm_results[0] = pickle.loads(pickle.dumps(report))  # rebuilds the column buffer
    warm = evaluate_pass(plan, warm_results)
    assert warm["digest"] != cold["digest"]
    mark_mismatches(warm, cold["digests"], "digest differs from the cold pass")
    assert warm["failed"] == [0]
    session = {"passes": [dict(cold, jobs=len(plan.jobs)), dict(warm, jobs=len(plan.jobs))]}
    attempted, failed = run.tally([session])
    assert (attempted, failed) == (2 * len(plan.jobs), 1)


def test_broken_invariant_fails_the_job():
    plan = make_plan("kvcache-tiers", seed=5, scale="tiny")
    try:
        results = plan.run_pass()
    finally:
        plan.close()
    report = results[0]
    report.epochs[1].fast_hits += 1
    results[0] = pickle.loads(pickle.dumps(report))
    record = evaluate_pass(plan, results)
    assert record["failed"] == [0]
    assert "fast hits + slow hits" in record["problems"][0]


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
