"""Tests for the sweep CLI: the exact flow the CI sharded matrix runs."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_one
from repro.experiments.sweep import NUM_SHARDS_ENV, SHARD_ENV, WORKERS_ENV
from repro.experiments.sweep_cli import main, results_digest
from repro.telemetry import configure

#: tiny-scale flags so the CLI flow stays test-suite sized
# fmt: off
TINY_FLAGS = [
    "--num-pages", "2048", "--batches", "4", "--batch-size", "2048",
    "--workloads", "gups,silo", "--ratios", "1:2",
]
# fmt: on


def test_shard_merge_digest_flow(tmp_path, monkeypatch, capsys):
    """Two sharded `run`s -> `merge` -> cached `digest` == fresh `digest`
    (the CI fan-in job's bit-identity assertion, in miniature)."""
    monkeypatch.setenv(NUM_SHARDS_ENV, "2")
    for shard in ("0", "1"):
        monkeypatch.setenv(SHARD_ENV, shard)
        assert main(["run", "fig12", *TINY_FLAGS, "--cache-dir", str(tmp_path / f"s{shard}")]) == 0
    monkeypatch.delenv(SHARD_ENV)
    monkeypatch.delenv(NUM_SHARDS_ENV)

    merged = tmp_path / "merged"
    assert main(["merge", str(merged), str(tmp_path / "s0"), str(tmp_path / "s1")]) == 0

    cached_out = tmp_path / "merged.digest"
    digest = ["digest", "fig12", *TINY_FLAGS]
    require_merged = ["--cache-dir", str(merged), "--require-cached"]
    assert main([*digest, *require_merged, "--out", str(cached_out)]) == 0
    fresh_out = tmp_path / "serial.digest"
    assert main([*digest, "--out", str(fresh_out)]) == 0

    assert cached_out.read_text() == fresh_out.read_text()
    out = capsys.readouterr().out
    assert "shard 0/2 ->" in out and "shard 1/2 ->" in out


def test_digest_on_a_shard_host_covers_every_job(monkeypatch, capsys):
    """`digest` ignores the shard the host's environment names: it is
    the whole-set ground truth the shards are checked against."""
    monkeypatch.setenv(SHARD_ENV, "0")
    monkeypatch.setenv(NUM_SHARDS_ENV, "2")
    assert main(["digest", "fig12", *TINY_FLAGS]) == 0
    assert "(executed=4 cache_hits=0)" in capsys.readouterr().out


def test_sharded_run_records_its_shard(tmp_path, monkeypatch):
    """`run` names its shard in SHARD.json, next to the cache slice."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setenv(SHARD_ENV, "1")
    monkeypatch.setenv(NUM_SHARDS_ENV, "2")
    cache = tmp_path / "s1"
    assert main(["run", "fig12", *TINY_FLAGS, "--cache-dir", str(cache)]) == 0
    manifest = json.loads((cache / "SHARD.json").read_text())
    assert manifest["backend"] == "process-pool[1] shard 1/2"
    assert manifest["jobs"] == 4
    assert manifest["executed"] + manifest["shard_skipped"] == 4
    assert len(list(cache.glob("*.pkl"))) == manifest["executed"]


def test_trace_on_a_shard_host_covers_every_job(tmp_path, monkeypatch, capsys):
    """`trace` profiles the whole job set, like `digest`, whatever shard
    the host's environment names (with 8 shards, one host owning both
    traced jobs is unlikely)."""
    monkeypatch.setenv(SHARD_ENV, "0")
    monkeypatch.setenv(NUM_SHARDS_ENV, "8")
    out = tmp_path / "trace.json"
    try:
        assert main(["trace", "fig12", *TINY_FLAGS, "--limit", "2", "--out", str(out)]) == 0
    finally:
        configure("off")
    assert "traced 2 jobs" in capsys.readouterr().out
    events = json.loads(out.read_text())["traceEvents"]
    lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "sweep" in lanes and len(lanes) >= 3


def test_sharded_run_without_cache_dir_is_refused(monkeypatch, capsys):
    monkeypatch.setenv(SHARD_ENV, "0")
    monkeypatch.setenv(NUM_SHARDS_ENV, "2")
    monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
    assert main(["run", "fig12", *TINY_FLAGS]) == 2
    assert "discards its results" in capsys.readouterr().err


def test_require_cached_fails_on_cold_cache(tmp_path, capsys):
    cache = tmp_path / "empty"
    code = main(["digest", "fig12", *TINY_FLAGS, "--cache-dir", str(cache), "--require-cached"])
    assert code == 2
    assert "does not cover" in capsys.readouterr().err
    # fail-fast: no job executed, nothing written into the cache under
    # diagnosis (a run-first check would pollute it with fresh results)
    assert list(cache.glob("*.pkl")) == []


def test_unknown_job_set_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_malformed_ratios_rejected(tmp_path):
    with pytest.raises(SystemExit, match="invalid ratio"):
        main(["run", "fig12", "--ratios", "1:2,14", "--cache-dir", str(tmp_path)])


def test_trace_subcommand_writes_perfetto_trace(tmp_path, capsys):
    """`trace` runs the job set instrumented and exports Chrome-trace
    JSON with the engine's phase spans and migration audit events."""
    out = tmp_path / "trace.json"
    try:
        assert main(["trace", "fig12", *TINY_FLAGS, "--limit", "2", "--out", str(out)]) == 0
    finally:
        configure("off")
    document = json.loads(out.read_text())
    events = document["traceEvents"]
    assert events, "trace is empty"
    span_names = {e["name"] for e in events if e["ph"] == "X"}
    # the per-epoch engine phases all show up...
    assert {"account", "profile", "plan"} <= span_names
    # ...and so do the sweep-layer spans
    assert "sweep.dispatch" in span_names
    # every engine got its own named lane
    lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "sweep" in lanes and len(lanes) >= 3
    assert "traced 2 jobs" in capsys.readouterr().out


def test_run_subcommand_exports_trace_when_telemetry_on(tmp_path, capsys):
    """REPRO_TELEMETRY=trace + `run` produces the Perfetto artifact
    (the CI sweep-parallel job's trace step)."""
    out = tmp_path / "sweep-trace.json"
    run = ["run", "fig12", *TINY_FLAGS, "--workloads", "gups"]
    configure("trace")
    try:
        assert main([*run, "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(out)]) == 0
    finally:
        configure("off")
    document = json.loads(out.read_text())
    assert document["otherData"]["mode"] == "trace"
    assert any(e["ph"] == "X" for e in document["traceEvents"])
    assert "wrote Chrome trace" in capsys.readouterr().out


def test_unsupported_subset_flag_rejected(tmp_path):
    """Flags a job set would silently ignore are an error, not a no-op."""
    with pytest.raises(SystemExit, match="not supported"):
        main(["run", "colocation", "--workloads", "gups", "--cache-dir", str(tmp_path)])
    with pytest.raises(SystemExit, match="not supported"):
        main(["run", "fig11", "--ratios", "1:2", "--cache-dir", str(tmp_path)])


def test_colocation_pool_digest_equals_serial(tmp_path, monkeypatch):
    """A 2-worker pool fills a cache whose co-location digest equals a
    serial run's (CI's pool smoke in miniature): the digest hashes
    values, and a report built in a worker pickles differently."""
    tiny = ["colocation", "--num-pages", "2048", "--batches", "4", "--batch-size", "2048"]
    cache = tmp_path / "pool"
    monkeypatch.setenv(WORKERS_ENV, "2")
    assert main(["run", *tiny, "--cache-dir", str(cache)]) == 0
    pool_out, serial_out = tmp_path / "pool.digest", tmp_path / "serial.digest"
    cached = ["--cache-dir", str(cache), "--require-cached"]
    assert main(["digest", *tiny, *cached, "--out", str(pool_out)]) == 0
    assert main(["digest", *tiny, "--out", str(serial_out)]) == 0
    assert pool_out.read_text() == serial_out.read_text()


@pytest.mark.parametrize("policy", ["neomem", "pebs", "tpp"])
def test_metrics_runs_digest_alike(policy):
    """Two runs of one job with telemetry on digest alike: wall-clock
    phase times stay out of the hash, and every counter else stays in."""
    config = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)
    configure("metrics")
    try:
        first, second = (run_one("gups", policy, config) for _ in range(2))
    finally:
        configure("off")
    telemetry = second.annotations["telemetry"]
    assert telemetry["phases"] and any(name.endswith(".ns") for name in telemetry["counters"])
    assert results_digest([first]) == results_digest([second])
    telemetry["counters"]["engine.epochs"] += 1
    assert results_digest([first]) != results_digest([second])


def _profile_rows(out: str) -> list[tuple[str, ...]]:
    """(policy, jobs, epochs, calls/epoch) per policy row of `profile`."""
    rows = [line.split() for line in out.splitlines() if line.startswith("  ")]
    return [tuple(row[:4]) for row in rows if row[0] != "policy"]


def test_profile_counts_the_same_calls_twice(capsys):
    """`profile` prints each policy's epochs and calls per epoch at the
    set's batch size and at 768 accesses; the call count repeats exactly."""
    runs = []
    for _ in range(2):
        assert main(["profile", "fig12", *TINY_FLAGS]) == 0
        runs.append(capsys.readouterr().out)
    assert "at 2048 pages x 4 batches x 2048 accesses" in runs[0]
    assert "at 2048 pages x 4 batches x 768 accesses" in runs[0]
    rows = _profile_rows(runs[0])
    assert len(rows) == 4 and {row[0] for row in rows} == {"neomem", "pebs"}
    assert all(int(row[2]) == 8 and float(row[3]) > 0 for row in rows)
    assert _profile_rows(runs[1]) == rows
