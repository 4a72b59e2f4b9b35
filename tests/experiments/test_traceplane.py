"""Shared-memory trace plane: packing, lifecycle, leak-freedom, identity.

The acceptance bars pinned here are the ISSUE's shm lifecycle
criteria: no leaked ``/dev/shm`` segments after normal completion,
after a job exception, or after a worker crash mid-sweep; and traces
served from a shared-memory attachment are bit-identical to
regenerated ones under both ``fork`` and ``spawn`` start methods.
"""

import os

import numpy as np
import pytest

from repro.experiments import fig12, traceplane
from repro.experiments import runner as runner_mod
from repro.experiments.backends import ProcessPoolBackend
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor
from repro.experiments.traceplane import (
    TracePlane,
    _pack_into,
    _packed_size,
    _unpack_views,
    plane_enabled,
    publish_for,
    trace_digest,
)

TINY = ExperimentConfig(num_pages=2048, batches=4, batch_size=2048)

SHM_DIR = "/dev/shm"


def _segments() -> set:
    if not os.path.isdir(SHM_DIR):
        return set()
    return {n for n in os.listdir(SHM_DIR) if n.startswith("rpt")}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this file must leave /dev/shm exactly as it found
    it — the registry's whole point."""
    before = _segments()
    yield
    traceplane.close_attached()
    assert _segments() - before == set()


def grid_jobs():
    """A small real figure grid (2 workloads x 1 ratio x 2 systems)."""
    return fig12.fig12_jobs(TINY, workloads=("gups", "silo"), ratios=((1, 2),))


def _grid_workload(spec):
    """A spec's fresh workload and the engine seed its run uses."""
    config = spec.resolved_config()
    workload = runner_mod.build_workload(spec.workload, config, **spec.workload_overrides)
    return workload, config.engine_config(**spec.engine_overrides).seed


def _regenerate(workload, seed) -> list:
    """The trace generated live, bypassing the trace store and plane."""
    rng = np.random.default_rng(seed)
    trace = []
    while (batch := workload.next_batch(rng)) is not None:
        trace.append(batch)
    return trace


def _traces_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(pa, pb) and np.array_equal(wa, wb) for (pa, wa), (pb, wb) in zip(a, b)
    )


class TestPacking:
    def _trace(self):
        rng = np.random.default_rng(7)
        trace = []
        for n in (5, 0, 17, 1):  # includes an empty epoch
            trace.append((rng.integers(0, 2048, size=n), rng.integers(0, 2, size=n) > 0))
        return trace

    def test_round_trip_is_bit_identical(self):
        trace = self._trace()
        buf = memoryview(bytearray(_packed_size(trace)))
        _pack_into(buf, trace)
        assert _traces_equal(_unpack_views(buf), trace)

    def test_unpacked_views_are_read_only(self):
        trace = self._trace()
        buf = memoryview(bytearray(_packed_size(trace)))
        _pack_into(buf, trace)
        pages, is_write = _unpack_views(buf)[0]
        with pytest.raises(ValueError):
            pages[0] = 99
        with pytest.raises(ValueError):
            is_write[0] = True


class TestPlaneLifecycle:
    def _trace(self):
        return [(np.arange(8, dtype=np.int64), np.zeros(8, dtype=bool))]

    def test_publish_attach_release(self):
        plane = TracePlane()
        descriptor = plane.publish("d" * 16, self._trace())
        assert descriptor.name in _segments()
        assert "d" * 16 in plane and len(plane) == 1
        plane.release()
        assert descriptor.name not in _segments()

    def test_same_digest_publishes_once(self):
        with TracePlane() as plane:
            a = plane.publish("d" * 16, self._trace())
            b = plane.publish("d" * 16, self._trace())
            assert a == b and len(plane) == 1

    def test_release_is_idempotent_and_final(self):
        plane = TracePlane()
        plane.publish("d" * 16, self._trace())
        plane.release()
        plane.release()
        with pytest.raises(RuntimeError):
            plane.publish("e" * 16, self._trace())

    def test_context_manager_releases_on_exception(self):
        with pytest.raises(RuntimeError):
            with TracePlane() as plane:
                descriptor = plane.publish("d" * 16, self._trace())
                assert descriptor.name in _segments()
                raise RuntimeError("mid-publish failure")
        assert descriptor.name not in _segments()

    def test_plane_enabled_env(self, monkeypatch):
        for off in ("off", "0", "false", "no", " OFF "):
            monkeypatch.setenv(traceplane.PLANE_ENV, off)
            assert not plane_enabled()
        for on in ("", "on", "1"):
            monkeypatch.setenv(traceplane.PLANE_ENV, on)
            assert plane_enabled()
        monkeypatch.delenv(traceplane.PLANE_ENV)
        assert plane_enabled()


class TestPublishFor:
    def test_grid_dedupes_to_distinct_traces(self):
        # 2 workloads x 2 systems share 2 distinct traces (the trace is
        # a function of the workload, not the policy/system)
        with publish_for(grid_jobs()) as plane:
            assert len(plane) == 2

    def test_custom_runner_specs_are_skipped(self):
        spec = JobSpec("gups", "none", TINY, runner="repro.experiments._testhooks:seed_runner")
        with publish_for([spec]) as plane:
            assert len(plane) == 0

    def test_attached_trace_is_bit_identical(self):
        jobs = grid_jobs()
        with publish_for(jobs) as plane:
            traceplane.install_table(plane.table())
            for spec in jobs[:2]:
                workload, seed = _grid_workload(spec)
                attached = traceplane.worker_trace(workload.trace_key(seed))
                assert attached is not None
                assert _traces_equal(attached, _regenerate(workload, seed))

    def test_unknown_key_returns_none(self):
        with publish_for(grid_jobs()) as plane:
            traceplane.install_table(plane.table())
            assert traceplane.worker_trace(("no", "such", "key")) is None

    def test_stale_descriptor_falls_back_to_none(self):
        """A table pointing at released segments must degrade, not fail."""
        plane = publish_for(grid_jobs())
        table = plane.table()
        plane.release()
        traceplane.close_attached()
        traceplane.install_table(table)
        workload, seed = _grid_workload(grid_jobs()[0])
        key = workload.trace_key(seed)
        assert traceplane.worker_trace(key) is None
        # the dead descriptor was dropped: the retry short-circuits
        assert trace_digest(key) not in traceplane._TABLE

    def test_consume_worker_ns_resets(self):
        traceplane.consume_worker_ns()
        traceplane._WORKER_NS["shm_attach"] += 123
        first = traceplane.consume_worker_ns()
        assert first["shm_attach"] == 123
        assert traceplane.consume_worker_ns()["shm_attach"] == 0


class TestPoolLifecycle:
    def test_normal_pool_run_matches_serial_and_leaks_nothing(self):
        jobs = grid_jobs()
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        with SweepExecutor(workers=2, cache_dir="") as pool:
            parallel = pool.run(jobs)
        assert all(
            a.epochs == b.epochs and a.workload == b.workload for a, b in zip(serial, parallel)
        )

    def test_job_exception_releases_segments(self):
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

    def test_worker_crash_releases_segments(self):
        from concurrent.futures.process import BrokenProcessPool

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
            # a broken pool is disposed; the executor still works after
            assert pool.run(grid_jobs()[:1])

    def test_spawn_pool_attaches_and_matches_serial(self):
        """Spawn workers start with cold caches, so the shm attach path
        (not fork's inherited trace store) must carry the traces."""
        jobs = grid_jobs()[:2]
        serial = SweepExecutor(workers=1, cache_dir="").run(jobs)
        backend = ProcessPoolBackend(workers=2, start_method="spawn")
        with SweepExecutor(workers=2, cache_dir="", backend=backend) as pool:
            parallel = pool.run(jobs)
            assert pool.stats.dispatch_ns.get("shm_attach", 0) > 0
        assert all(
            a.epochs == b.epochs and a.workload == b.workload for a, b in zip(serial, parallel)
        )
