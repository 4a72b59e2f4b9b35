"""Run-manifest provenance written next to sweep cache entries."""

from repro.experiments.backends import merge_shards
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, job_key
from repro.telemetry import git_revision, read_manifest

TINY = ExperimentConfig(num_pages=2048, batches=2, batch_size=2048)


def tiny_jobs():
    return [
        JobSpec(workload="gups", policy="first-touch", config=TINY),
        JobSpec(workload="gups", policy="pebs", config=TINY),
    ]


def test_executed_jobs_get_manifest_records(tmp_path):
    executor = SweepExecutor(workers=1, cache_dir=tmp_path)
    jobs = tiny_jobs()
    executor.run(jobs)
    records = read_manifest(tmp_path)
    assert {r["key"] for r in records} == {job_key(s) for s in jobs}
    for record in records:
        assert record["git_rev"] == git_revision()
        assert record["seed"] == TINY.seed
        assert record["runtime_s"] > 0
    labels = {r["label"] for r in records}
    assert labels == {"gups/first-touch", "gups/pebs"}


def test_cache_hits_do_not_duplicate_manifest_records(tmp_path):
    executor = SweepExecutor(workers=1, cache_dir=tmp_path)
    executor.run(tiny_jobs())
    executor.run(tiny_jobs())  # fully cached second pass
    assert len(read_manifest(tmp_path)) == 2


def test_no_cache_dir_means_no_manifest(tmp_path):
    executor = SweepExecutor(workers=1, cache_dir="")
    executor.run(tiny_jobs())
    assert read_manifest(tmp_path) == []


def test_merge_shards_concatenates_manifests(tmp_path):
    a, b, merged = tmp_path / "a", tmp_path / "b", tmp_path / "m"
    jobs = tiny_jobs()
    SweepExecutor(workers=1, cache_dir=a).run(jobs[:1])
    SweepExecutor(workers=1, cache_dir=b).run(jobs[1:])
    merge_shards([a, b], merged)
    records = read_manifest(merged)
    assert {r["key"] for r in records} == {job_key(s) for s in jobs}


def test_merging_again_adds_no_duplicate_records(tmp_path):
    """A merged directory is safe to merge again: only the entries a
    merge copies bring their manifest records along."""
    a, b, merged = tmp_path / "a", tmp_path / "b", tmp_path / "m"
    jobs = tiny_jobs() + [JobSpec("silo", spec.policy, TINY) for spec in tiny_jobs()]
    SweepExecutor(workers=1, cache_dir=a).run(jobs[:2])
    SweepExecutor(workers=1, cache_dir=b).run(jobs[2:])
    merge_shards([a, b], merged)
    merge_shards([a, b, a], merged)
    keys = [r["key"] for r in read_manifest(merged)]
    assert sorted(keys) == sorted(job_key(s) for s in jobs)
