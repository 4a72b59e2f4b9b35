"""Tests for pluggable execution backends: the pool, sharding, merging,
replicas.

The acceptance bar pinned here is the CI fan-in invariant: a figure
sweep split over 2 shards, after ``merge_shards()``, is bit-identical
to the serial backend's results.
"""

import pickle
import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import fig12
from repro.experiments.backends import (
    NUM_SHARDS_ENV,
    SHARD_ENV,
    SHARD_SKIPPED,
    ProcessPoolBackend,
    SerialBackend,
    ShardedBackend,
    ShardMergeError,
    _cost,
    is_shard_skipped,
    is_sharded_env,
    make_backend,
    merge_shards,
    partition,
    resolve_backend,
    shard_of,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import workload_pages
from repro.experiments.sweep import (
    JobSpec,
    SweepError,
    SweepExecutor,
    job_key,
    replicate,
    run_replicated,
)
from repro.experiments.sweep_cli import results_digest

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


class TestPartitioning:
    def test_disjoint_and_exhaustive(self):
        shards = [partition(CHEAP, s, 3) for s in range(3)]
        assert sum(len(s) for s in shards) == len(CHEAP)
        seen = set()
        for shard in shards:
            for spec in shard:
                assert spec.seed not in seen  # seeds uniquely identify CHEAP
                seen.add(spec.seed)
        assert seen == {spec.seed for spec in CHEAP}
        # input order is preserved within each shard
        for shard in shards:
            positions = [CHEAP.index(spec) for spec in shard]
            assert positions == sorted(positions)

    def test_stable_under_reordering(self):
        """Shard membership is a function of job identity, not position."""
        assignment = {spec.seed: shard_of(spec, 4) for spec in CHEAP}
        shuffled = list(CHEAP)
        random.Random(7).shuffle(shuffled)
        for spec in shuffled:
            assert shard_of(spec, 4) == assignment[spec.seed]

    def test_single_shard_owns_everything(self):
        assert partition(CHEAP, 0, 1) == list(CHEAP)

    def test_validation(self):
        with pytest.raises(SweepError):
            shard_of(CHEAP[0], 0)
        with pytest.raises(SweepError):
            partition(CHEAP, 2, 2)
        with pytest.raises(SweepError):
            partition(CHEAP, -1, 2)
        with pytest.raises(SweepError):
            ShardedBackend(0, 2, inner=ShardedBackend(0, 2))

    def test_tag_does_not_move_a_job(self):
        import dataclasses

        spec = CHEAP[0]
        tagged = dataclasses.replace(spec, tag="elsewhere")
        assert shard_of(spec, 5) == shard_of(tagged, 5)

    def test_partition_matches_shard_of(self):
        for num_shards in (2, 3):
            for s in range(num_shards):
                owned = partition(CHEAP, s, num_shards)
                assert all(shard_of(spec, num_shards) == s for spec in owned)


class TestShardedBackend:
    def test_out_of_shard_jobs_are_marked(self):
        executor = SweepExecutor(backend=ShardedBackend(0, 2))
        results = executor.run(CHEAP, allow_partial=True)
        mine = partition(CHEAP, 0, 2)
        assert executor.stats.executed == len(mine)
        assert executor.stats.shard_skipped == len(CHEAP) - len(mine)
        owned_seeds = {spec.seed for spec in mine}
        for spec, result in zip(CHEAP, results):
            if spec.seed in owned_seeds:
                assert result == float(spec.seed)
            else:
                assert is_shard_skipped(result)

    def test_skip_marker_is_never_cached(self, tmp_path):
        executor = SweepExecutor(backend=ShardedBackend(1, 2), cache_dir=tmp_path)
        executor.run(CHEAP, allow_partial=True)
        mine = partition(CHEAP, 1, 2)
        assert len(list(tmp_path.glob("*.pkl"))) == len(mine)

    def test_marker_survives_pickling_as_marker(self):
        assert is_shard_skipped(pickle.loads(pickle.dumps(SHARD_SKIPPED)))

    def test_shards_compose_with_pool_inner(self):
        backend = ShardedBackend(0, 2, inner=ProcessPoolBackend(2))
        results = SweepExecutor(backend=backend).run(CHEAP, allow_partial=True)
        assert [r for r in results if not is_shard_skipped(r)] == [
            float(s.seed) for s in partition(CHEAP, 0, 2)
        ]

    def test_sharded_backend_agrees_with_partition(self):
        """The backend and the module-level partition() split by the same
        content hash, so tests (and hosts) can predict ownership."""
        executor = SweepExecutor(backend=ShardedBackend(1, 3))
        results = executor.run(CHEAP, allow_partial=True)
        mine = {spec.seed for spec in partition(CHEAP, 1, 3)}
        executed = {
            spec.seed for spec, result in zip(CHEAP, results) if not is_shard_skipped(result)
        }
        assert executed == mine

    def test_skipped_jobs_report_no_wall_clock(self):
        backend = ShardedBackend(0, 2)
        results = backend.execute(CHEAP)
        walls = backend.last_job_wall_ns
        assert len(walls) == len(CHEAP)
        for result, wall in zip(results, walls):
            assert (wall is None) == is_shard_skipped(result)

    def test_dispatch_overhead_is_the_inner_backends(self, monkeypatch):
        inner, _ = inline_pool_backend(monkeypatch)
        backend = ShardedBackend(0, 2, inner=inner)
        backend.execute(CHEAP)
        assert backend.last_dispatch_ns == inner.last_dispatch_ns
        assert backend.last_dispatch_ns.keys() == {"job_pickle"}

    def test_precomputed_keys_decide_ownership(self):
        """The executor hands over the keys it already hashed; the
        backend splits by those instead of hashing the specs again."""
        results = ShardedBackend(1, 2).execute(CHEAP[:4], keys=["1", "2", "3", "4"])
        assert [is_shard_skipped(r) for r in results] == [False, True, False, True]


class _InlinePool:
    """Stands in for the worker pool: records every submitted chunk's
    specs and unpicklable mode, in submission order, and runs the chunk
    in this process."""

    def __init__(self):
        self.chunks = []
        self.modes = []

    def submit(self, fn, blob):
        specs, unpicklable = pickle.loads(blob)
        self.chunks.append(specs)
        self.modes.append(unpicklable)
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

    def test_unpicklable_mode_rides_every_chunk(self, monkeypatch):
        """Workers sanitize results under the caller's mode, so "strip"
        must reach them inside each chunk."""
        specs = [
            JobSpec(
                "gups",
                "first-touch",
                TINY,
                seed=seed,
                extractor="repro.experiments._testhooks:poison_annotations",
            )
            for seed in (1, 2)
        ]
        backend, pool = inline_pool_backend(monkeypatch)
        reports = backend.execute(specs, unpicklable="strip")
        assert pool.modes == ["strip", "strip"]
        for report in reports:
            assert report.annotations["stripped_annotations"] == ["extractor_leak"]

    def test_workers_must_be_positive(self):
        with pytest.raises(SweepError, match="workers must be >= 1"):
            ProcessPoolBackend(0)

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


class TestEnvResolution:
    def test_shard_env_selects_sharded(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "1")
        monkeypatch.setenv(NUM_SHARDS_ENV, "2")
        assert is_sharded_env()
        backend = SweepExecutor().backend
        assert isinstance(backend, ShardedBackend)
        assert backend.shard == 1 and backend.num_shards == 2
        assert isinstance(backend.inner, SerialBackend)

    def test_shard_env_composes_with_workers(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "0")
        monkeypatch.setenv(NUM_SHARDS_ENV, "2")
        backend = SweepExecutor(workers=3).backend
        assert isinstance(backend.inner, ProcessPoolBackend)
        assert backend.inner.workers == 3

    def test_half_configured_sharding_is_an_error(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "0")
        with pytest.raises(SweepError, match="NUM_SHARDS"):
            SweepExecutor()

    @pytest.mark.parametrize("name", [SHARD_ENV, NUM_SHARDS_ENV])
    def test_malformed_shard_env_names_the_variable(self, monkeypatch, name):
        monkeypatch.setenv(SHARD_ENV, "0")
        monkeypatch.setenv(NUM_SHARDS_ENV, "2")
        monkeypatch.setenv(name, "first")
        with pytest.raises(SweepError, match=f"{name} must be an integer, got 'first'"):
            SweepExecutor(workers=1)

    def test_blank_shard_env_is_unset(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, " ")
        monkeypatch.setenv(NUM_SHARDS_ENV, "")
        assert not is_sharded_env()
        assert isinstance(SweepExecutor(workers=1).backend, SerialBackend)

    def test_backend_env_forces_name(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert isinstance(SweepExecutor(workers=4).backend, SerialBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(SweepError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_default_resolution(self):
        assert isinstance(resolve_backend(workers=1), SerialBackend)
        assert isinstance(resolve_backend(workers=2), ProcessPoolBackend)
        explicit = SerialBackend()
        assert resolve_backend(explicit, workers=8) is explicit


class TestMergeShards:
    def test_merge_is_union(self, tmp_path):
        dirs = []
        for shard in range(2):
            d = tmp_path / f"s{shard}"
            SweepExecutor(backend=ShardedBackend(shard, 2), cache_dir=d).run(
                CHEAP, allow_partial=True
            )
            dirs.append(d)
        stats = merge_shards(dirs, tmp_path / "merged")
        assert stats.shards == 2
        assert stats.merged == len(CHEAP)
        assert stats.duplicates == 0
        merged = SweepExecutor(cache_dir=tmp_path / "merged")
        assert merged.run(CHEAP) == [float(s.seed) for s in CHEAP]
        assert merged.stats.cache_hits == len(CHEAP)
        assert merged.stats.executed == 0

    def test_identical_duplicates_are_harmless(self, tmp_path):
        d = tmp_path / "s0"
        SweepExecutor(backend=ShardedBackend(0, 2), cache_dir=d).run(
            CHEAP, allow_partial=True
        )
        stats = merge_shards([d, d], tmp_path / "merged")
        assert stats.duplicates == stats.merged

    def test_mismatched_payload_collision_raises(self, tmp_path):
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        SweepExecutor(backend=ShardedBackend(0, 2), cache_dir=d0).run(
            CHEAP, allow_partial=True
        )
        d1.mkdir()
        victim = next(d0.glob("*.pkl"))
        (d1 / victim.name).write_bytes(pickle.dumps("impostor result"))
        with pytest.raises(ShardMergeError, match=victim.stem):
            merge_shards([d0, d1], tmp_path / "merged")

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
    def test_two_shard_merge_matches_serial_bit_for_bit(self, tmp_path):
        """ISSUE acceptance: a 2-shard run of a figure sweep, after
        merge_shards(), is bit-identical to the serial backend."""
        jobs = grid_jobs()
        dirs = []
        for shard in range(2):
            d = tmp_path / f"shard{shard}"
            SweepExecutor(backend=ShardedBackend(shard, 2), cache_dir=d).run(
                jobs, allow_partial=True
            )
            dirs.append(d)
        merged_dir = tmp_path / "merged"
        merge_shards(dirs, merged_dir)

        merged_exec = SweepExecutor(workers=1, cache_dir=merged_dir)
        merged = merged_exec.run(jobs)
        assert merged_exec.stats.executed == 0, "merged cache must cover the grid"

        serial = SweepExecutor(workers=1).run(jobs)
        for a, b in zip(merged, serial):
            assert pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
                b, protocol=pickle.HIGHEST_PROTOCOL
            )


class TestReplicate:
    def test_expansion_layout(self):
        jobs = grid_jobs()
        out = replicate(jobs, 3)
        assert len(out) == 3 * len(jobs)
        for i, spec in enumerate(jobs):
            block = out[i * 3 : (i + 1) * 3]
            base = spec.config.seed
            assert [r.seed for r in block] == [base, base + 1, base + 2]
            assert all(r.workload == spec.workload for r in block)

    def test_explicit_seed_is_the_base(self):
        spec = JobSpec("gups", "neomem", TINY, seed=100)
        assert [r.seed for r in replicate([spec], 2)] == [100, 101]

    def test_n_seeds_validation(self):
        with pytest.raises(SweepError):
            replicate(CHEAP, 0)

    def test_run_replicated_aggregates(self):
        """End-to-end: the per-point stats are exactly computable for
        the seed_runner, whose result IS the seed."""
        spec = JobSpec(
            "gups",
            "none",
            TINY,
            seed=10,
            runner="repro.experiments._testhooks:seed_runner",
        )
        stats, = run_replicated([spec], 4, metric=float)
        # replicas return 10, 11, 12, 13
        assert stats.n == 4
        assert stats.mean == pytest.approx(11.5)
        assert stats.stddev == pytest.approx(1.2909944, rel=1e-6)
        # t(df=3) = 3.182
        assert stats.ci95 == pytest.approx(3.182 * 1.2909944 / 2.0, rel=1e-4)

    def test_replicas_shard_like_any_job(self):
        replicas = replicate(grid_jobs(), 2)
        shards = [partition(replicas, s, 2) for s in range(2)]
        assert sum(len(s) for s in shards) == len(replicas)


class TestShardedAggregationGuard:
    def test_run_refuses_partial_results_by_default(self):
        """Every aggregating harness calls run() without allow_partial,
        so a sharded env fails fast with the merge_shards remedy
        instead of leaking skip markers into slowdown math."""
        executor = SweepExecutor(backend=ShardedBackend(0, len(CHEAP)))
        with pytest.raises(SweepError, match="merge_shards"):
            executor.run(CHEAP)

    def test_fully_cached_sharded_run_is_not_partial(self, tmp_path):
        """With a merged cache covering the set, even a sharded
        executor returns complete results — no false positives."""
        for shard in range(2):
            SweepExecutor(backend=ShardedBackend(shard, 2), cache_dir=tmp_path).run(
                CHEAP, allow_partial=True
            )
        executor = SweepExecutor(backend=ShardedBackend(0, 2), cache_dir=tmp_path)
        assert executor.run(CHEAP) == [float(s.seed) for s in CHEAP]


class TestSoloBaselineDedup:
    def test_solo_baselines_shared_across_schedulers(self, tmp_path):
        """ROADMAP satellite: solo baselines are their own JobSpecs, so
        two schedulers over one tenant mix run each baseline once."""
        from repro.experiments.colocation import make_tenant_specs, run_colocation

        specs = make_tenant_specs(2, TINY)
        executor = SweepExecutor(cache_dir=tmp_path)
        first = run_colocation(
            specs, "pebs", TINY, scheduler="round-robin", executor=executor
        )
        baseline_runs = executor.stats.executed  # 1 coloc + 2 solos
        assert baseline_runs == 3
        second = run_colocation(
            specs, "pebs", TINY, scheduler="weighted-share", executor=executor
        )
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
        keys = [
            job_key(solo_baseline_job(spec, "pebs", TINY, topology_pages))
            for spec in specs
        ]
        assert keys[0] == keys[4]
        assert len(set(keys)) == 4
