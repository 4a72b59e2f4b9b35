"""Tests for the declarative sweep subsystem (JobSpec/SweepExecutor)."""

import importlib
import inspect
import pickle
import shutil
from pathlib import Path

import pytest

import repro.experiments.sweep as sweep_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import (
    JobSpec,
    SweepError,
    SweepExecutor,
    SweepSerializationError,
    _sanitize_result,
    job_key,
    resolve,
    resolve_executor,
    source_fingerprint,
)
from repro.memsim.metrics import SimulationReport

#: small enough that pool startup dominates nothing and the whole file
#: stays in test-suite (not benchmark) territory
TINY = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)


def tiny_jobs():
    return [
        JobSpec("gups", "first-touch", TINY),
        JobSpec("gups", "neomem", TINY),
        JobSpec("silo", "pebs", TINY),
    ]


class TestJobKey:
    def test_stable_for_equal_specs(self):
        assert job_key(JobSpec("gups", "neomem", TINY)) == job_key(JobSpec("gups", "neomem", TINY))

    def test_tag_is_not_identity(self):
        assert job_key(JobSpec("gups", "neomem", TINY, tag="a")) == job_key(
            JobSpec("gups", "neomem", TINY, tag="b")
        )

    def test_seed_identity_is_resolved(self):
        """seed=None and an explicit seed equal to config.seed run the
        identical simulation, so they share one job key and one cache
        entry."""
        implicit = JobSpec("gups", "neomem", TINY)
        explicit = JobSpec("gups", "neomem", TINY, seed=TINY.seed)
        assert job_key(implicit) == job_key(explicit)
        assert job_key(implicit) != job_key(JobSpec("gups", "neomem", TINY, seed=TINY.seed + 1))

    def test_every_axis_changes_the_key(self):
        base = JobSpec("gups", "neomem", TINY)
        variants = [
            JobSpec("silo", "neomem", TINY),
            JobSpec("gups", "pebs", TINY),
            JobSpec("gups", "neomem", TINY.with_ratio(1, 8)),
            JobSpec("gups", "neomem", TINY, seed=7),
            JobSpec("gups", "neomem", TINY, workload_overrides={"total_batches": 2}),
            JobSpec("gups", "neomem", TINY, policy_kwargs={"sample_interval": 10}),
            JobSpec(
                "gups",
                "neomem",
                TINY,
                extractor="m:f",  # repro: noqa PKL001 — deliberately-unresolvable hook path, proving it changes the cache key
            ),
        ]
        keys = {job_key(v) for v in variants}
        assert job_key(base) not in keys
        assert len(keys) == len(variants)

    def test_nested_config_dataclasses_hash(self):
        a = JobSpec(
            "pagerank",
            "neomem",
            TINY,
            policy_kwargs={"neomem_config": TINY.neomem_config()},
        )
        b = JobSpec(
            "pagerank",
            "neomem",
            TINY,
            policy_kwargs={"neomem_config": TINY.neomem_config(migration_interval_s=1.0)},
        )
        assert job_key(a) != job_key(b)

    def test_rejects_non_data_fields(self):
        spec = JobSpec("gups", "neomem", TINY, policy_kwargs={"cb": lambda: None})
        with pytest.raises(SweepError, match="plain data"):
            job_key(spec)

    def test_spec_pickles(self):
        spec = JobSpec("gups", "neomem", TINY, policy_kwargs={"a": 1})
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSourceFingerprint:
    """Code-aware cache invalidation: the cache key is salted with a
    hash of the simulator sources, so editing a model invalidates
    stale entries without a version bump."""

    @pytest.fixture()
    def source_tree(self, tmp_path, monkeypatch):
        """A miniature src/repro tree containing a real policy file."""
        tree = tmp_path / "repro"
        (tree / "policies").mkdir(parents=True)
        import repro.policies.tpp as tpp

        shutil.copy(Path(tpp.__file__), tree / "policies" / "tpp.py")
        (tree / "__init__.py").write_text("# package\n")
        monkeypatch.setattr(sweep_module, "_SOURCE_ROOT", tree)
        sweep_module._tree_fingerprint.cache_clear()
        yield tree
        sweep_module._tree_fingerprint.cache_clear()

    def test_touching_a_policy_file_changes_the_key(self, source_tree):
        spec = JobSpec("gups", "tpp", TINY)
        before = job_key(spec)
        policy_file = source_tree / "policies" / "tpp.py"
        policy_file.write_text(policy_file.read_text() + "\n# edited\n")
        sweep_module._tree_fingerprint.cache_clear()
        assert job_key(spec) != before

    def test_fingerprint_covers_file_names_too(self, source_tree):
        before = source_fingerprint()
        (source_tree / "policies" / "brand_new.py").write_text("x = 1\n")
        sweep_module._tree_fingerprint.cache_clear()
        assert source_fingerprint() != before

    def test_fingerprint_stable_without_edits(self, source_tree):
        before = source_fingerprint()
        sweep_module._tree_fingerprint.cache_clear()
        assert source_fingerprint() == before

    def test_fingerprint_follows_source_root(self, source_tree, monkeypatch):
        """The package root is resolved once per process, but
        ``_SOURCE_ROOT`` and an explicit root are followed on every call."""
        assert source_fingerprint() == source_fingerprint(source_tree)
        monkeypatch.setattr(sweep_module, "_SOURCE_ROOT", None)
        package = source_fingerprint()
        assert package != source_fingerprint(source_tree)
        monkeypatch.setattr(sweep_module, "_SOURCE_ROOT", source_tree)
        assert source_fingerprint() != package

    def test_job_key_equals_the_explicit_package_root(self, monkeypatch):
        """Caching the package root leaves every key as the resolved root
        would make it."""
        import repro

        spec = JobSpec("gups", "neomem", TINY)
        default = job_key(spec)
        monkeypatch.setattr(sweep_module, "_SOURCE_ROOT", Path(repro.__file__).parent)
        assert job_key(spec) == default

    def test_key_salting_is_live_by_default(self):
        """The real tree is hashed into every key (no opt-in needed)."""
        assert len(source_fingerprint()) == 16
        # job_key is a pure function of spec + code, so two calls agree
        spec = JobSpec("gups", "neomem", TINY)
        assert job_key(spec) == job_key(spec)


class TestResolve:
    def test_resolves_dotted_path(self):
        from repro.experiments.sweep import run_single

        assert resolve("repro.experiments.sweep:run_single") is run_single

    def test_rejects_malformed_and_missing(self):
        with pytest.raises(SweepError):
            resolve("no_colon_here")
        with pytest.raises(SweepError):
            resolve("repro.experiments.sweep:does_not_exist")
        with pytest.raises(SweepError):
            resolve("not.a.module:thing")


class TestExecutor:
    def test_serial_results_in_job_order(self):
        reports = SweepExecutor(workers=1).run(tiny_jobs())
        assert [(r.workload, r.policy) for r in reports] == [
            ("gups", "first-touch"),
            ("gups", "neomem"),
            ("silo", "pebs"),
        ]

    def test_pool_matches_serial_bit_for_bit(self):
        """ISSUE acceptance: serial and process-pool runs of the same
        JobSpec list produce identical SimulationReport counters."""
        jobs = tiny_jobs()
        serial = SweepExecutor(workers=1).run(jobs)
        pooled = SweepExecutor(workers=2).run(jobs)
        for a, b in zip(serial, pooled):
            assert a.epochs == b.epochs
            assert a.total_time_ns == b.total_time_ns
            assert a.total_promoted_pages == b.total_promoted_pages

    def test_seed_axis_changes_results(self):
        base, reseeded = SweepExecutor().run(
            [
                JobSpec("gups", "neomem", TINY),
                JobSpec("gups", "neomem", TINY, seed=TINY.seed + 1),
            ]
        )
        assert base.epochs != reseeded.epochs

    def test_duplicate_jobs_execute_once(self):
        executor = SweepExecutor()
        job = JobSpec("gups", "first-touch", TINY)
        a, b = executor.run([job, JobSpec("gups", "first-touch", TINY, tag="dup")])
        assert executor.stats.executed == 1
        assert executor.stats.deduplicated == 1
        assert a is b

    def test_workers_validation(self):
        with pytest.raises(SweepError):
            SweepExecutor(workers=0)

    def test_malformed_workers_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "two")
        with pytest.raises(SweepError, match="REPRO_SWEEP_WORKERS must be an integer"):
            SweepExecutor()

    @pytest.mark.parametrize("raw", ["1.5", "2 workers"])
    def test_workers_env_must_be_a_whole_number(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", raw)
        message = f"REPRO_SWEEP_WORKERS must be an integer, got '{raw}'"
        with pytest.raises(SweepError, match=message):
            SweepExecutor()

    def test_workers_env_below_one_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        with pytest.raises(SweepError, match="workers must be >= 1"):
            SweepExecutor()

    def test_blank_workers_env_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "  ")
        assert SweepExecutor().backend.workers == 1

    def test_pool_dispatch_stats_hold_only_job_pickle(self):
        """The pool's one dispatch phase is pickling its chunks, and the
        executor accumulates it over every run."""
        jobs = tiny_jobs()
        with SweepExecutor(workers=2, cache_dir="") as executor:
            executor.run(jobs)
            first = executor.stats.dispatch_ns["job_pickle"]
            assert first > 0
            executor.run(jobs[:2])
            second = executor.backend.last_dispatch_ns["job_pickle"]
            assert executor.stats.dispatch_ns == {"job_pickle": first + second}

    def test_serial_run_records_no_dispatch_overhead(self):
        executor = SweepExecutor(workers=1, cache_dir="")
        executor.run(tiny_jobs())
        assert executor.stats.dispatch_ns == {}

    def test_env_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "c"))
        executor = SweepExecutor()
        assert executor.backend.workers == 3
        assert executor.cache_dir == tmp_path / "c"

    def test_resolve_executor_passthrough(self, monkeypatch):
        executor = SweepExecutor(workers=2)
        assert resolve_executor(executor) is executor
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert resolve_executor(None).backend.workers == 2


#: every module holding ``run_*`` harnesses that run on a SweepExecutor
HARNESS_MODULES = (
    "ablation",
    "colocation",
    "fig03",
    "fig04",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "kvcache",
    "overhead",
    "table01",
    "table06",
)


class TestHarnessSignatures:
    @pytest.mark.parametrize("module_name", HARNESS_MODULES)
    def test_harnesses_take_only_an_executor(self, module_name):
        """How a harness's jobs run is the executor's business alone:
        no ``run_*`` function takes ``workers=`` or ``backend=``, and
        each module has at least one that takes ``executor=``."""
        module = importlib.import_module(f"repro.experiments.{module_name}")
        harnesses = {
            name: inspect.signature(fn).parameters
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if name.startswith("run_") and fn.__module__ == module.__name__
        }
        assert any("executor" in params for params in harnesses.values())
        for name, params in harnesses.items():
            assert not {"workers", "backend"} & params.keys(), name


class TestCache:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        jobs = tiny_jobs()
        first = SweepExecutor(workers=1, cache_dir=tmp_path)
        cold = first.run(jobs)
        assert first.stats.cache_misses == len(jobs)
        second = SweepExecutor(workers=1, cache_dir=tmp_path)
        warm = second.run(jobs)
        assert second.stats.cache_hits == len(jobs)
        assert second.stats.executed == 0
        for a, b in zip(cold, warm):
            assert a.epochs == b.epochs

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        job = JobSpec("gups", "first-touch", TINY)
        executor = SweepExecutor(cache_dir=tmp_path)
        executor.run([job])
        path = tmp_path / f"{job_key(job)}.pkl"
        path.write_bytes(b"not a pickle")
        again = SweepExecutor(cache_dir=tmp_path)
        report = again.run([job])[0]
        assert again.stats.cache_hits == 0
        assert report.total_time_ns > 0

    def test_none_result_still_caches(self, tmp_path):
        job = JobSpec(
            "gups",
            "none",
            TINY,
            runner="repro.experiments._testhooks:none_runner",
        )
        executor = SweepExecutor(cache_dir=tmp_path)
        assert executor.run([job]) == [None]
        again = SweepExecutor(cache_dir=tmp_path)
        assert again.run([job]) == [None]
        assert again.stats.cache_hits == 1
        assert again.stats.executed == 0

    def test_empty_cache_dir_disables_caching(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        executor = SweepExecutor(cache_dir="")
        assert executor.cache_dir is None
        executor.run([JobSpec("gups", "first-touch", TINY)])
        assert not list(tmp_path.iterdir())

    def test_different_config_different_entry(self, tmp_path):
        executor = SweepExecutor(cache_dir=tmp_path)
        executor.run([JobSpec("gups", "first-touch", TINY)])
        executor.run([JobSpec("gups", "first-touch", TINY, seed=99)])
        assert executor.stats.executed == 2
        assert len(list(tmp_path.glob("*.pkl"))) == 2


class TestSanitization:
    def _poisoned_report(self):
        report = SimulationReport(workload="gups", policy="neomem")
        report.annotations["engine"] = lambda: None  # stands in for a live engine
        report.annotations["fine"] = {"counters": [1, 2, 3]}
        return report

    def test_error_names_the_offenders(self):
        report = self._poisoned_report()
        with pytest.raises(SweepSerializationError, match=r"\['engine'\]"):
            _sanitize_result(report, JobSpec("gups", "neomem", TINY))

    def test_executor_surfaces_clear_error_not_picklingerror(self):
        """ISSUE satellite: an engine stashed in annotations must fail
        with a clear error, not a raw PicklingError from the pool."""
        job = JobSpec(
            "gups",
            "first-touch",
            TINY,
            extractor="repro.experiments._testhooks:poison_annotations",
        )
        with pytest.raises(SweepSerializationError, match="extractor_leak"):
            SweepExecutor(workers=1).run([job])


class TestExtractorFlow:
    def test_extractor_runs_with_live_engine(self):
        job = JobSpec(
            "gups",
            "first-touch",
            TINY,
            extractor="repro.experiments._testhooks:record_fast_pages",
        )
        report = SweepExecutor().run([job])[0]
        assert report.annotations["fast_tier_pages"] > 0
        # the engine itself never leaks into the returned report
        assert "engine" not in report.annotations
        assert "policy_object" not in report.annotations
