"""Tests for sweep execution: the pool, sharding, merging.

The acceptance bar pinned here is the CI fan-in invariant: a figure
sweep split over 2 shards, after ``merge_shards()``, is bit-identical
to the serial results.
"""

import pickle
import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.experiments.sweep as sweep_module
from repro.experiments import fig12
from repro.experiments.backends import (
    ProcessPoolBackend,
    ShardMergeError,
    _cost,
    merge_shards,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import workload_pages
from repro.experiments.sweep import (
    CACHE_ENV,
    NUM_SHARDS_ENV,
    SHARD_ENV,
    SHARD_SKIPPED,
    WORKERS_ENV,
    JobSpec,
    SweepError,
    SweepExecutor,
    SweepSerializationError,
    job_key,
    shard_of,
)
from repro.experiments.sweep_cli import results_digest
from repro.telemetry import read_manifest

TINY = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)

#: cheap numeric jobs — sharding semantics don't need real simulations
CHEAP = [
    JobSpec(
        "gups",
        "none",
        TINY,
        seed=seed,
        runner="repro.experiments._testhooks:seed_runner",
    )
    for seed in range(16)
]


def grid_jobs():
    """A small real figure grid (2 workloads x 1 ratio x 2 systems)."""
    return fig12.fig12_jobs(TINY, workloads=("gups", "silo"), ratios=((1, 2),))


def sized_job(seed, **overrides):
    """A cheap job whose pool cost comes from its workload overrides."""
    return JobSpec(
        "gups",
        "none",
        TINY,
        seed=seed,
        workload_overrides=overrides,
        runner="repro.experiments._testhooks:seed_runner",
    )


def owned_seeds(shard, num_shards):
    """The seeds of the CHEAP jobs a shard owns (seeds identify CHEAP)."""
    return {spec.seed for spec in CHEAP if shard_of(spec, num_shards) == shard}


@pytest.fixture()
def on_shard(monkeypatch):
    """Name a shard in this host's environment: ``on_shard(shard, num_shards)``."""

    def name_shard(shard, num_shards):
        monkeypatch.setenv(SHARD_ENV, str(shard))
        monkeypatch.setenv(NUM_SHARDS_ENV, str(num_shards))

    return name_shard


class TestPartitioning:
    def test_disjoint_and_exhaustive(self, on_shard):
        executed = []
        for shard in range(3):
            on_shard(shard, 3)
            results = SweepExecutor().run(CHEAP, allow_partial=True)
            executed.append({r for r in results if r is not SHARD_SKIPPED})
        assert sum(len(seeds) for seeds in executed) == len(CHEAP)
        assert set().union(*executed) == {float(spec.seed) for spec in CHEAP}

    def test_stable_under_reordering(self):
        """Shard membership is a function of job identity, not position."""
        assignment = {spec.seed: shard_of(spec, 4) for spec in CHEAP}
        shuffled = list(CHEAP)
        random.Random(7).shuffle(shuffled)
        for spec in shuffled:
            assert shard_of(spec, 4) == assignment[spec.seed]

    def test_single_shard_owns_everything(self, on_shard):
        on_shard(0, 1)
        assert SweepExecutor().run(CHEAP) == [float(spec.seed) for spec in CHEAP]

    def test_validation(self):
        with pytest.raises(SweepError):
            shard_of(CHEAP[0], 0)

    def test_tag_does_not_move_a_job(self):
        import dataclasses

        spec = CHEAP[0]
        tagged = dataclasses.replace(spec, tag="elsewhere")
        assert shard_of(spec, 5) == shard_of(tagged, 5)


class TestShardedExecutor:
    def test_out_of_shard_jobs_are_marked(self, on_shard):
        on_shard(0, 2)
        executor = SweepExecutor()
        results = executor.run(CHEAP, allow_partial=True)
        mine = owned_seeds(0, 2)
        assert executor.stats.executed == len(mine)
        assert executor.stats.shard_skipped == len(CHEAP) - len(mine)
        for spec, result in zip(CHEAP, results):
            if spec.seed in mine:
                assert result == float(spec.seed)
            else:
                assert result is SHARD_SKIPPED

    def test_only_owned_jobs_reach_the_backend(self, on_shard):
        on_shard(1, 2)
        executor = SweepExecutor()
        executor.run(CHEAP, allow_partial=True)
        assert len(executor.backend.last_job_wall_ns) == len(owned_seeds(1, 2))

    def test_skip_marker_is_never_cached(self, on_shard, tmp_path):
        on_shard(1, 2)
        SweepExecutor(cache_dir=tmp_path).run(CHEAP, allow_partial=True)
        assert len(list(tmp_path.glob("*.pkl"))) == len(owned_seeds(1, 2))

    def test_marker_survives_pickling_as_marker(self):
        assert pickle.loads(pickle.dumps(SHARD_SKIPPED)) is SHARD_SKIPPED

    def test_shards_compose_with_a_pool(self, on_shard):
        on_shard(0, 2)
        with SweepExecutor(workers=2) as executor:
            results = executor.run(CHEAP, allow_partial=True)
        assert [r for r in results if r is not SHARD_SKIPPED] == [
            float(spec.seed) for spec in CHEAP if spec.seed in owned_seeds(0, 2)
        ]

    def test_ownership_agrees_with_shard_of(self, on_shard):
        """The executor and shard_of() split by the same content hash,
        so tests (and hosts) can predict ownership."""
        on_shard(1, 3)
        results = SweepExecutor().run(CHEAP, allow_partial=True)
        executed = {spec.seed for spec, r in zip(CHEAP, results) if r is not SHARD_SKIPPED}
        assert executed == owned_seeds(1, 3)

    def test_the_job_key_decides_ownership(self, on_shard, monkeypatch):
        """A job belongs to its key modulo the shard count: the key the
        executor hashed once, and names the cache entry by."""
        monkeypatch.setattr(sweep_module, "job_key", lambda spec: str(spec.seed + 1))
        on_shard(1, 2)
        results = SweepExecutor(cache_dir="").run(CHEAP[:4], allow_partial=True)
        assert results == [0.0, SHARD_SKIPPED, 2.0, SHARD_SKIPPED]

    def test_skipped_jobs_report_no_wall_clock(self, on_shard, tmp_path):
        """Only owned jobs run, so only they leave a manifest record,
        each with its measured wall clock."""
        on_shard(0, 2)
        SweepExecutor(cache_dir=tmp_path).run(CHEAP, allow_partial=True)
        records = read_manifest(tmp_path)
        assert sorted(record["seed"] for record in records) == sorted(owned_seeds(0, 2))
        assert all(record["wall_s"] > 0 for record in records)

    def test_only_owned_jobs_are_pickled(self, on_shard, monkeypatch):
        """A sharded pool run ships only the owned jobs, and the
        executor's dispatch overhead is the backend's."""
        on_shard(0, 2)
        executor = SweepExecutor(workers=2, cache_dir="")
        pool = _InlinePool()
        monkeypatch.setattr(executor.backend, "_ensure_pool", lambda: pool)
        executor.run(CHEAP, allow_partial=True)
        shipped = [spec.seed for chunk in pool.chunks for spec in chunk]
        assert sorted(shipped) == sorted(owned_seeds(0, 2))
        assert executor.stats.dispatch_ns == executor.backend.last_dispatch_ns
        assert executor.stats.dispatch_ns.keys() == {"job_pickle"}

    def test_a_partly_cached_set_serves_every_hit(self, on_shard, tmp_path):
        """Cached results come back on any shard; only the uncached
        rest splits by ownership."""
        SweepExecutor(cache_dir=tmp_path, backend="serial").run(CHEAP[:8])
        on_shard(0, 2)
        executor = SweepExecutor(cache_dir=tmp_path)
        results = executor.run(CHEAP, allow_partial=True)
        served = set(range(8)) | owned_seeds(0, 2)
        for spec, result in zip(CHEAP, results):
            if spec.seed in served:
                assert result == float(spec.seed)
            else:
                assert result is SHARD_SKIPPED
        assert executor.stats.cache_hits == 8
        assert executor.stats.executed == len(served) - 8

    @pytest.mark.parametrize("backend", ["serial", "process-pool", "given"])
    def test_a_named_or_given_backend_runs_every_job(self, on_shard, backend):
        """An explicit backend beats the shard the environment names."""
        on_shard(0, 2)
        if backend == "given":
            backend = ProcessPoolBackend(1)
        with SweepExecutor(workers=2, cache_dir="", backend=backend) as executor:
            assert executor.run(CHEAP) == [float(spec.seed) for spec in CHEAP]
        assert executor.stats.shard_skipped == 0


class _InlinePool:
    """Stands in for the worker pool: records every submitted chunk's
    specs, in submission order, and runs the chunk in this process."""

    def __init__(self):
        self.chunks = []

    def submit(self, fn, blob):
        self.chunks.append(pickle.loads(blob))
        future = Future()
        future.set_result(fn(blob))
        return future


def inline_pool_backend(monkeypatch, workers=2):
    """A pool backend whose chunks run through an :class:`_InlinePool`."""
    pool = _InlinePool()
    backend = ProcessPoolBackend(workers)
    monkeypatch.setattr(backend, "_ensure_pool", lambda: pool)
    return backend, pool


class TestProcessPool:
    def test_cold_cache_submission_is_heaviest_first_ties_by_key(self, monkeypatch):
        """Chunks ship in (-pages x batches, job key) order; results
        still come back in spec order."""
        light = sized_job(0, num_pages=1024, total_batches=1)
        heavy = sized_job(1, num_pages=8192, total_batches=8)
        ties = [sized_job(seed, num_pages=4096, total_batches=4) for seed in (2, 3, 4, 5)]
        specs = [light, *ties, heavy]
        backend, pool = inline_pool_backend(monkeypatch)

        results = backend.execute(specs)

        assert results == [float(spec.seed) for spec in specs]
        shipped = [spec for chunk in pool.chunks for spec in chunk]
        assert shipped == [heavy, *sorted(ties, key=job_key), light]
        assert backend.last_dispatch_ns.keys() == {"job_pickle"}

    def test_cost_is_pages_times_batches_from_the_overrides(self):
        assert _cost(sized_job(0, num_pages=4096, total_batches=3)) == 4096 * 3

    def test_cost_defaults_to_the_workload_footprint_and_config_batches(self):
        """Unset (or zero) overrides fall back to the page count the
        runner would build the workload with, so a larger-RSS benchmark
        costs more on the same configuration."""
        for workload in ("gups", "silo", "bwaves"):
            spec = JobSpec(workload, "none", TINY)
            assert _cost(spec) == workload_pages(workload, TINY) * TINY.batches
        assert _cost(sized_job(0, num_pages=0)) == _cost(sized_job(0))
        assert _cost(JobSpec("bwaves", "none", TINY)) > _cost(JobSpec("gups", "none", TINY))

    def test_cost_survives_a_non_integer_override(self):
        assert _cost(sized_job(0, num_pages="lots")) == TINY.num_pages * TINY.batches
        assert _cost(sized_job(0, total_batches=None)) == TINY.num_pages * TINY.batches

    @pytest.mark.parametrize(
        ("jobs", "workers", "sizes"),
        [
            (2, 2, [1, 1]),
            (20, 2, [3, 3, 3, 3, 3, 3, 2]),
            (17, 3, [2, 2, 2, 2, 2, 2, 2, 2, 1]),
            (300, 2, [32] * 9 + [12]),
        ],
        ids=["one-per-chunk", "four-per-worker", "three-workers", "capped-at-32"],
    )
    def test_chunks_are_about_four_per_worker_and_at_most_32(
        self, monkeypatch, jobs, workers, sizes
    ):
        specs = [sized_job(seed) for seed in range(jobs)]
        backend, pool = inline_pool_backend(monkeypatch, workers)
        assert backend.execute(specs) == [float(seed) for seed in range(jobs)]
        assert [len(chunk) for chunk in pool.chunks] == sizes

    def test_every_job_reports_its_wall_clock(self, monkeypatch):
        specs = [sized_job(seed, num_pages=1024 * (seed + 1)) for seed in range(6)]
        backend, _ = inline_pool_backend(monkeypatch)
        backend.execute(specs)
        walls = backend.last_job_wall_ns
        assert len(walls) == len(specs)
        assert all(isinstance(wall, int) and wall > 0 for wall in walls)

    @pytest.mark.parametrize(("workers", "jobs"), [(1, 4), (2, 1)], ids=["one-worker", "one-job"])
    def test_inline_paths_start_no_pool(self, workers, jobs):
        backend = ProcessPoolBackend(workers)
        specs = CHEAP[:jobs]
        assert backend.execute(specs) == [float(spec.seed) for spec in specs]
        assert backend._pool is None
        assert backend.last_dispatch_ns == {}
        assert len(backend.last_job_wall_ns) == jobs

    def test_dispatch_ns_is_reset_by_every_execute(self, monkeypatch):
        backend, _ = inline_pool_backend(monkeypatch)
        backend.execute(CHEAP[:4])
        assert backend.last_dispatch_ns["job_pickle"] > 0
        backend.execute(CHEAP[:1])  # runs inline: nothing is pickled
        assert backend.last_dispatch_ns == {}

    def test_workers_must_be_positive(self):
        with pytest.raises(SweepError, match="workers must be >= 1"):
            ProcessPoolBackend(0)

    def test_a_fresh_backend_has_run_nothing(self):
        """The per-batch fields exist before the first execute: perfbench
        reads them off an executor's backend."""
        backend = ProcessPoolBackend(2)
        assert backend.last_job_wall_ns == []
        assert backend.last_dispatch_ns == {}
        assert backend._pool is None

    def test_close_is_idempotent_and_a_closed_backend_reopens(self):
        backend = ProcessPoolBackend(2)
        try:
            assert backend.execute(CHEAP[:4]) == [0.0, 1.0, 2.0, 3.0]
            backend.close()
            backend.close()
            assert backend._pool is None
            assert backend.execute(CHEAP[4:8]) == [4.0, 5.0, 6.0, 7.0]
            assert backend._pool is not None
        finally:
            backend.close()


class TestPoolStartMethods:
    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_pool_matches_serial(self, start_method):
        """Workers started by spawn or forkserver begin with an empty
        trace store and regenerate every trace; fork workers inherit
        the parent's.  All three return the serial results."""
        jobs = grid_jobs()
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        backend = ProcessPoolBackend(2, start_method=start_method)
        with SweepExecutor(cache_dir="", backend=backend) as pool:
            parallel = pool.run(jobs)
        assert results_digest(parallel) == results_digest(serial)


class TestPoolFailures:
    def test_job_exception_reaches_the_caller(self):
        jobs = grid_jobs() + [
            JobSpec(
                "gups",
                "none",
                TINY,
                seed=999,
                runner="repro.experiments._testhooks:raising_runner",
            )
        ]
        with SweepExecutor(workers=2, cache_dir="") as pool:
            with pytest.raises(RuntimeError, match="raising_runner"):
                pool.run(jobs)

    def test_worker_crash_disposes_the_broken_pool(self):
        jobs = grid_jobs() + [
            JobSpec(
                "gups",
                "none",
                TINY,
                seed=999,
                runner="repro.experiments._testhooks:exit_runner",
            )
        ]
        with SweepExecutor(workers=2, cache_dir="") as pool:
            with pytest.raises(BrokenProcessPool):
                pool.run(jobs)
            # a broken pool is disposed; the next batch starts a fresh one
            assert len(pool.run(grid_jobs()[:2])) == 2

    def test_an_unpicklable_result_fails_by_name_on_the_pool(self):
        """Workers sanitize what they return, so a leaked engine fails
        with the error naming its annotation, not a PicklingError."""
        jobs = [
            JobSpec(
                "gups",
                "first-touch",
                TINY,
                seed=seed,
                extractor="repro.experiments._testhooks:poison_annotations",
            )
            for seed in (1, 2)
        ]
        with SweepExecutor(workers=2, cache_dir="") as pool:
            with pytest.raises(SweepSerializationError, match="extractor_leak"):
                pool.run(jobs)


class TestEnvResolution:
    def test_shard_env_selects_sharded(self, on_shard):
        on_shard(1, 2)
        assert SweepExecutor().shard == (1, 2)

    def test_shard_env_composes_with_workers(self, on_shard):
        on_shard(0, 2)
        executor = SweepExecutor(workers=3)
        assert executor.shard == (0, 2)
        assert executor.backend.workers == 3

    def test_half_configured_sharding_is_an_error(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "0")
        with pytest.raises(SweepError, match="NUM_SHARDS"):
            SweepExecutor()

    def test_a_shard_count_without_a_shard_is_an_error(self, monkeypatch):
        monkeypatch.delenv(SHARD_ENV, raising=False)
        monkeypatch.setenv(NUM_SHARDS_ENV, "2")
        with pytest.raises(SweepError, match=f"needs both {SHARD_ENV} and {NUM_SHARDS_ENV}"):
            SweepExecutor()

    def test_the_shard_is_read_once_at_construction(self, on_shard):
        on_shard(1, 2)
        executor = SweepExecutor()
        on_shard(0, 3)
        assert executor.shard == (1, 2)
        results = executor.run(CHEAP, allow_partial=True)
        executed = {spec.seed for spec, r in zip(CHEAP, results) if r is not SHARD_SKIPPED}
        assert executed == owned_seeds(1, 2)

    def test_default_resolution(self, monkeypatch):
        """With no knob set, an executor runs every job inline, uncached."""
        for name in (WORKERS_ENV, CACHE_ENV, SHARD_ENV, NUM_SHARDS_ENV):
            monkeypatch.delenv(name, raising=False)
        executor = SweepExecutor()
        assert executor.backend.workers == 1
        assert executor.shard is None
        assert executor.cache_dir is None
        assert executor.run(CHEAP) == [float(spec.seed) for spec in CHEAP]

    @pytest.mark.parametrize("name", [SHARD_ENV, NUM_SHARDS_ENV])
    def test_malformed_shard_env_names_the_variable(self, on_shard, monkeypatch, name):
        on_shard(0, 2)
        monkeypatch.setenv(name, "first")
        with pytest.raises(SweepError, match=f"{name} must be an integer, got 'first'"):
            SweepExecutor(workers=1)

    @pytest.mark.parametrize(
        ("shard", "num_shards", "message"),
        [
            (2, 2, r"shard must be in \[0, 2\), got 2"),
            (-1, 2, r"shard must be in \[0, 2\), got -1"),
            (0, 0, "num_shards must be >= 1, got 0"),
        ],
        ids=["2/2", "-1/2", "0/0"],
    )
    def test_out_of_range_shard_env_is_rejected(self, on_shard, shard, num_shards, message):
        on_shard(shard, num_shards)
        with pytest.raises(SweepError, match=message):
            SweepExecutor()

    def test_blank_shard_env_is_unset(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, " ")
        monkeypatch.setenv(NUM_SHARDS_ENV, "")
        assert SweepExecutor(workers=1).shard is None

    def test_named_backends(self, on_shard):
        """A named or given backend runs every job, whatever shard the
        environment names (``sweep_cli digest`` relies on this)."""
        on_shard(0, 2)
        serial = SweepExecutor(workers=4, backend="serial")
        pool = SweepExecutor(workers=4, backend="process-pool")
        explicit = ProcessPoolBackend(2)
        given = SweepExecutor(workers=8, backend=explicit)
        assert serial.backend.workers == 1
        assert pool.backend.workers == 4
        assert given.backend is explicit
        assert serial.shard is None and pool.shard is None and given.shard is None
        assert serial.run(CHEAP) == [float(spec.seed) for spec in CHEAP]

    @pytest.mark.parametrize("backend", ["carrier-pigeon", "sharded", 2])
    def test_unknown_name_rejected(self, backend):
        with pytest.raises(SweepError, match="unknown backend"):
            SweepExecutor(backend=backend)


class TestMergeShards:
    def test_merge_is_union(self, on_shard, tmp_path):
        dirs = []
        for shard in range(2):
            on_shard(shard, 2)
            d = tmp_path / f"s{shard}"
            SweepExecutor(cache_dir=d).run(CHEAP, allow_partial=True)
            dirs.append(d)
        stats = merge_shards(dirs, tmp_path / "merged")
        assert stats.shards == 2
        assert stats.merged == len(CHEAP)
        assert stats.duplicates == 0
        merged = SweepExecutor(cache_dir=tmp_path / "merged", backend="serial")
        assert merged.run(CHEAP) == [float(s.seed) for s in CHEAP]
        assert merged.stats.cache_hits == len(CHEAP)
        assert merged.stats.executed == 0

    def test_identical_duplicates_are_harmless(self, on_shard, tmp_path):
        on_shard(0, 2)
        d = tmp_path / "s0"
        SweepExecutor(cache_dir=d).run(CHEAP, allow_partial=True)
        stats = merge_shards([d, d], tmp_path / "merged")
        assert stats.duplicates == stats.merged

    def test_mismatched_payload_collision_raises(self, on_shard, tmp_path):
        on_shard(0, 2)
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        SweepExecutor(cache_dir=d0).run(CHEAP, allow_partial=True)
        d1.mkdir()
        victim = next(d0.glob("*.pkl"))
        (d1 / victim.name).write_bytes(pickle.dumps("impostor result"))
        with pytest.raises(ShardMergeError, match=victim.stem):
            merge_shards([d0, d1], tmp_path / "merged")

    def test_merging_a_directory_into_itself_copies_nothing(self, on_shard, tmp_path):
        on_shard(0, 2)
        d = tmp_path / "s0"
        SweepExecutor(cache_dir=d).run(CHEAP, allow_partial=True)
        before = read_manifest(d)
        stats = merge_shards([d], d)
        assert stats.merged == 0
        assert stats.duplicates == len(owned_seeds(0, 2))
        assert read_manifest(d) == before

    def test_missing_shard_dir_raises(self, tmp_path):
        with pytest.raises(ShardMergeError, match="not found"):
            merge_shards([tmp_path / "nope"], tmp_path / "merged")

    def test_zero_job_shard_still_merges(self, tmp_path):
        """A shard that owns no jobs of a tiny grid must still yield a
        valid (empty) cache directory — shard membership reshuffles
        whenever the source fingerprint changes, so any shard can come
        up empty on any run."""
        empty = tmp_path / "empty"
        SweepExecutor(cache_dir=empty)  # the executor materializes it
        stats = merge_shards([empty], tmp_path / "merged")
        assert stats.merged == 0 and stats.shards == 1


class TestShardedBitIdentity:
    def test_two_shard_merge_matches_serial_bit_for_bit(self, on_shard, tmp_path):
        """A 2-shard run of a figure sweep, after merge_shards(), is
        bit-identical to the serial results."""
        jobs = grid_jobs()
        dirs = []
        for shard in range(2):
            on_shard(shard, 2)
            d = tmp_path / f"shard{shard}"
            SweepExecutor(cache_dir=d).run(jobs, allow_partial=True)
            dirs.append(d)
        merged_dir = tmp_path / "merged"
        merge_shards(dirs, merged_dir)

        merged_exec = SweepExecutor(cache_dir=merged_dir, backend="serial")
        merged = merged_exec.run(jobs)
        assert merged_exec.stats.executed == 0, "merged cache must cover the grid"

        serial = SweepExecutor(cache_dir="", backend="serial").run(jobs)
        for a, b in zip(merged, serial):
            assert pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
                b, protocol=pickle.HIGHEST_PROTOCOL
            )


class TestShardedAggregationGuard:
    def test_run_refuses_partial_results_by_default(self, on_shard):
        """Every aggregating harness calls run() without allow_partial,
        so a sharded env fails fast with the merge_shards remedy
        instead of leaking skip markers into slowdown math."""
        on_shard(0, len(CHEAP))
        with pytest.raises(SweepError, match="merge_shards"):
            SweepExecutor().run(CHEAP)

    def test_a_harness_on_a_shard_host_refuses_partial_results(self, on_shard):
        """A harness given no executor builds one from the environment,
        shard included, so it fails fast instead of aggregating a slice.
        Shard 0 of 1024 is all but certain to miss some of the four jobs."""
        on_shard(0, 1024)
        with pytest.raises(SweepError, match="merge_shards"):
            fig12.run_fig12(TINY, workloads=("gups", "silo"), ratios=((1, 2),))

    def test_fully_cached_sharded_run_is_not_partial(self, on_shard, tmp_path):
        """With a cache covering the set, even an executor on a shard
        returns complete results — no false positives."""
        for shard in range(2):
            on_shard(shard, 2)
            SweepExecutor(cache_dir=tmp_path).run(CHEAP, allow_partial=True)
        on_shard(0, 2)
        executor = SweepExecutor(cache_dir=tmp_path)
        assert executor.run(CHEAP) == [float(s.seed) for s in CHEAP]
        assert executor.stats.shard_skipped == 0


class TestSoloBaselineDedup:
    def test_solo_baseline_jobs_shared_across_schedulers(self, tmp_path):
        """ROADMAP satellite: solo baselines are their own JobSpecs, so
        two schedulers over one tenant mix run each baseline once."""
        from repro.experiments.colocation import make_tenant_specs, run_colocation

        specs = make_tenant_specs(2, TINY)
        executor = SweepExecutor(cache_dir=tmp_path)
        first = run_colocation(specs, "pebs", TINY, scheduler="round-robin", executor=executor)
        baseline_runs = executor.stats.executed  # 1 coloc + 2 solos
        assert baseline_runs == 3
        second = run_colocation(specs, "pebs", TINY, scheduler="weighted-share", executor=executor)
        # only the co-located run is new; both solos came from the cache
        assert executor.stats.executed == baseline_runs + 1
        assert executor.stats.cache_hits == 2
        assert first.slowdowns.keys() == second.slowdowns.keys()
        assert all(s > 0 for s in second.slowdowns.values())

    def test_same_workload_tenants_share_one_baseline(self):
        """Tenant names label results but never change a solo run, so
        two tenants with the same workload share one baseline job."""
        from repro.experiments.colocation import make_tenant_specs, solo_baseline_job
        from repro.experiments.sweep import job_key

        specs = make_tenant_specs(5, TINY)  # cycles the 4-workload mix
        assert specs[0].workload == specs[4].workload
        topology_pages = sum(spec.num_pages for spec in specs)
        keys = [job_key(solo_baseline_job(spec, "pebs", TINY, topology_pages)) for spec in specs]
        assert keys[0] == keys[4]
        assert len(set(keys)) == 4
