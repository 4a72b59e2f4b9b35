"""Pluggable execution backends for the sweep subsystem.

:class:`~repro.experiments.sweep.SweepExecutor` owns spec hashing,
dedup and the result cache; a backend owns only how the pending jobs
run:

* :class:`SerialBackend` — in-process, deterministic, no pool overhead.
* :class:`ProcessPoolBackend` — a *persistent, warm*
  ``ProcessPoolExecutor`` fan-out: workers start once and keep their
  process-level caches (the runner's trace store, the H3 tables)
  across ``run`` calls, and jobs ship as pre-pickled chunks,
  heaviest first.
* :class:`ShardedBackend` — the *distributed* backend: it executes only
  its own slice of the job list and leaves :data:`SHARD_SKIPPED`
  markers for the rest.  A job's shard is its content hash modulo the
  shard count (:func:`shard_of`), so assignment keys off
  :func:`~repro.experiments.sweep.job_key` — not list position — and is
  stable under job reordering; two shards can never execute (or cache)
  conflicting entries for one key.  N independent hosts (CI runners,
  cluster nodes) each run one shard against a private cache directory;
  :func:`merge_shards` then fans the per-shard caches into one
  directory, erroring on key collisions whose payloads disagree.

Backend selection is env-driven so existing harnesses pick it up
without code changes: ``REPRO_SWEEP_SHARD``/``REPRO_SWEEP_NUM_SHARDS``
select sharded execution, ``REPRO_SWEEP_BACKEND`` forces a named
backend, and ``REPRO_SWEEP_WORKERS`` keeps choosing serial vs pool for
the local (or per-shard inner) execution path.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.experiments.runner import workload_pages
from repro.experiments.sweep import (
    JobSpec,
    SweepError,
    _env_int,
    _execute_job,
    job_key,
)
from repro.telemetry import MODE_METRICS, Telemetry

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "ShardMergeError",
    "MergeStats",
    "SHARD_SKIPPED",
    "is_shard_skipped",
    "shard_of",
    "partition",
    "merge_shards",
    "make_backend",
    "resolve_backend",
    "is_sharded_env",
    "BACKEND_ENV",
    "SHARD_ENV",
    "NUM_SHARDS_ENV",
]

#: force a named backend ("serial", "process-pool", "sharded")
BACKEND_ENV = "REPRO_SWEEP_BACKEND"
#: this host's shard index, 0-based
SHARD_ENV = "REPRO_SWEEP_SHARD"
#: total number of shards splitting the job list
NUM_SHARDS_ENV = "REPRO_SWEEP_NUM_SHARDS"


class ShardMergeError(SweepError):
    """Per-shard caches disagree about a cache key's payload."""


# ----------------------------------------------------------------------
# the backend interface
# ----------------------------------------------------------------------
class ExecutionBackend(ABC):
    """How a batch of pending (non-cached, deduplicated) jobs runs.

    The executor owns spec hashing, dedup and the result cache; a
    backend owns nothing but the execution strategy.  ``execute`` must
    return one entry per spec, in spec order; entries may be
    :data:`SHARD_SKIPPED` when the backend intentionally leaves a job
    to another shard (the executor will not cache those).

    After ``execute`` returns, ``last_job_wall_ns`` holds one measured
    per-job wall clock per spec (``None`` for skipped jobs) and
    ``last_dispatch_ns`` the backend's own dispatch-overhead breakdown
    — the executor feeds both into run manifests and bench records.
    """

    name: str = "?"

    def __init__(self) -> None:
        self.last_job_wall_ns: list[int | None] = []
        self.last_dispatch_ns: dict[str, int] = {}

    @abstractmethod
    def execute(
        self,
        specs: Sequence[JobSpec],
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        """Run every spec, returning sanitized results in spec order.

        ``keys`` are the specs' precomputed :func:`job_key` hashes when
        the caller already has them (the executor always does); backends
        that order or partition by key use them instead of re-hashing.
        """

    def close(self) -> None:
        """Release any held execution resources (idempotent)."""

    def describe(self) -> str:
        """Human-readable identity for logs and stats lines."""
        return self.name


def _timed_execute_job(payload: tuple[JobSpec, str]):
    """Run one job under a local wall-clock span; returns
    ``(result, wall_ns)``.  The span comes from a private metrics-mode
    Telemetry so measurement works regardless of the global mode."""
    tel = Telemetry(MODE_METRICS)
    with tel.span("job"):
        result = _execute_job(payload)
    return result, tel.phase_totals().get("job", 0)


def _execute_inline(specs: Sequence[JobSpec], unpicklable: str) -> tuple[list, list]:
    """Run specs one after another in this process: results and walls."""
    results = []
    walls: list[int | None] = []
    for spec in specs:
        result, wall_ns = _timed_execute_job((spec, unpicklable))
        results.append(result)
        walls.append(wall_ns)
    return results, walls


def _execute_chunk(blob: bytes) -> tuple[list, list]:
    """Process-pool entry point for one pre-pickled ``(specs,
    unpicklable)`` chunk: every spec's result and measured wall clock."""
    return _execute_inline(*pickle.loads(blob))


class SerialBackend(ExecutionBackend):
    """Run jobs one after another in this process (the deterministic
    default: no pool startup, no pickling of specs in flight)."""

    name = "serial"

    def execute(
        self,
        specs: Sequence[JobSpec],
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        self.last_dispatch_ns = {}
        results, self.last_job_wall_ns = _execute_inline(specs, unpicklable)
        return results


def _cost(spec: JobSpec) -> float:
    """Cold-cache cost estimate: RSS pages x batches, from the spec alone.

    Simulated wall clock is dominated by accesses processed, and the
    access count scales with the workload's page footprint times its
    batch count.
    """
    config = spec.resolved_config()
    try:
        pages = int(spec.workload_overrides.get("num_pages", 0))
        if pages <= 0:
            pages = workload_pages(spec.workload, config)
        batches = int(spec.workload_overrides.get("total_batches", 0))
        if batches <= 0:
            batches = config.batches
    except (TypeError, ValueError):  # a non-integer override
        pages, batches = config.num_pages, config.batches
    return float(max(1, pages)) * float(max(1, batches))


def _heaviest_first(specs: Sequence[JobSpec], keys: Sequence[str]) -> list[int]:
    """Indices into ``specs`` in ``(-cost, key)`` order: the stragglers
    start first and the small jobs fill the tail."""
    costs = [_cost(spec) for spec in specs]
    return sorted(range(len(specs)), key=lambda i: (-costs[i], keys[i]))


class ProcessPoolBackend(ExecutionBackend):
    """Fan jobs over a persistent, warm ``ProcessPoolExecutor``.

    The pool outlives ``execute`` calls: workers start once and keep
    their process-level caches — the runner's trace store (traces and
    their account products), the H3 XOR tables — across batches, so
    consecutive jobs on a warm worker skip setup.  Jobs ship as
    pre-pickled chunks (amortizing pickle/IPC, measured under a
    ``job_pickle`` span), heaviest first.  A batch of one job (or
    ``workers=1``) runs inline — the pool buys nothing there.

    Call :meth:`close` (or let the executor's context manager do it) to
    shut the pool down; a broken pool (worker crash) is disposed and
    the next ``execute`` starts a fresh one.
    """

    name = "process-pool"

    def __init__(self, workers: int, start_method: str | None = None):
        super().__init__()
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = (
                multiprocessing.get_context(self.start_method)
                if self.start_method
                else None
            )
            self._pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=context)
        return self._pool

    def _dispose_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:
        try:
            self._dispose_pool()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def execute(
        self,
        specs: Sequence[JobSpec],
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        self.last_dispatch_ns = {}
        if self.workers <= 1 or len(specs) <= 1:
            results, self.last_job_wall_ns = _execute_inline(specs, unpicklable)
            return results

        if keys is None:
            keys = [job_key(spec) for spec in specs]
        order = _heaviest_first(specs, keys)
        # ~4 chunks per worker: big enough to amortize pickle and IPC,
        # small enough that heaviest-first ordering still balances the tail
        size = max(1, min(32, -(-len(specs) // (self.workers * 4))))
        chunks = [order[i : i + size] for i in range(0, len(order), size)]

        # pre-pickling in the parent (rather than letting the pool's
        # feeder thread do it per submit) is what lets the job_pickle
        # span measure serialization honestly — and ships one blob per
        # chunk instead of one message per job
        tel = Telemetry(MODE_METRICS)
        blobs = []
        with tel.span("job_pickle"):
            for chunk in chunks:
                payload = ([specs[i] for i in chunk], unpicklable)
                blobs.append(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_execute_chunk, blob) for blob in blobs]
            results: list = [None] * len(specs)
            walls: list[int | None] = [None] * len(specs)
            for chunk, future in zip(chunks, futures):
                chunk_results, chunk_walls = future.result()
                for i, result, wall_ns in zip(chunk, chunk_results, chunk_walls):
                    results[i] = result
                    walls[i] = wall_ns
        except BrokenProcessPool:
            # a dead worker poisons the whole pool; drop it so the next
            # execute starts clean instead of failing forever
            self._dispose_pool()
            raise
        self.last_job_wall_ns = walls
        self.last_dispatch_ns = {"job_pickle": tel.phase_totals().get("job_pickle", 0)}
        return results

    def describe(self) -> str:
        return f"{self.name}[{self.workers}]"


# ----------------------------------------------------------------------
# deterministic sharding
# ----------------------------------------------------------------------
class _ShardSkipped:
    """Marker returned for jobs belonging to another shard."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<shard-skipped>"

    def __reduce__(self):
        return (_ShardSkipped, ())


SHARD_SKIPPED = _ShardSkipped()


def is_shard_skipped(result) -> bool:
    """True for the out-of-shard marker (robust across pickling)."""
    return isinstance(result, _ShardSkipped)


def _validate_sharding(shard: int, num_shards: int) -> None:
    if num_shards < 1:
        raise SweepError(f"num_shards must be >= 1, got {num_shards}")
    if not 0 <= shard < num_shards:
        raise SweepError(f"shard must be in [0, {num_shards}), got {shard}")


def _shard_of_key(key: str, num_shards: int) -> int:
    return int(key, 16) % num_shards


def shard_of(spec: JobSpec, num_shards: int) -> int:
    """The shard owning a spec: its content hash modulo ``num_shards``.

    Keyed off :func:`job_key`, so assignment is a pure function of the
    job's identity — independent of list order, duplicate count, tag,
    or which host asks.  Every host slicing the same job list with the
    same ``num_shards`` computes the same disjoint, exhaustive split,
    and a partially cached grid splits exactly like the full one.
    """
    _validate_sharding(0, num_shards)
    return _shard_of_key(job_key(spec), num_shards)


def partition(specs: Sequence[JobSpec], shard: int, num_shards: int) -> list[JobSpec]:
    """The sub-list of ``specs`` owned by ``shard``, in input order."""
    _validate_sharding(shard, num_shards)
    return [spec for spec in specs if _shard_of_key(job_key(spec), num_shards) == shard]


class ShardedBackend(ExecutionBackend):
    """Execute only this host's deterministic slice of the job list.

    Out-of-shard jobs come back as :data:`SHARD_SKIPPED`; the executor
    neither caches nor counts them as executed.  The in-shard slice
    runs through ``inner`` (serial or a process pool), so sharding
    composes with per-host parallelism: 2 shards x 4 workers uses 8
    cores across 2 machines.

    A sharded run is only useful with a cache directory — that slice
    of results *is* the shard's output, and :func:`merge_shards` is how
    the slices become one result set.
    """

    name = "sharded"

    def __init__(
        self,
        shard: int,
        num_shards: int,
        inner: ExecutionBackend | None = None,
    ):
        super().__init__()
        _validate_sharding(shard, num_shards)
        if isinstance(inner, ShardedBackend):
            raise SweepError("sharded backends do not nest")
        self.shard = shard
        self.num_shards = num_shards
        self.inner = inner if inner is not None else SerialBackend()

    def close(self) -> None:
        self.inner.close()

    def execute(
        self,
        specs: Sequence[JobSpec],
        unpicklable: str = "error",
        keys: Sequence[str] | None = None,
    ) -> list:
        if keys is None:
            keys = [job_key(spec) for spec in specs]
        owned = [_shard_of_key(key, self.num_shards) == self.shard for key in keys]
        mine = [spec for spec, ours in zip(specs, owned) if ours]
        mine_keys = [key for key, ours in zip(keys, owned) if ours]
        results = iter(self.inner.execute(mine, unpicklable, keys=mine_keys))
        inner_walls = iter(self.inner.last_job_wall_ns)
        self.last_job_wall_ns = [next(inner_walls, None) if ours else None for ours in owned]
        self.last_dispatch_ns = dict(self.inner.last_dispatch_ns)
        return [next(results) if ours else SHARD_SKIPPED for ours in owned]

    def describe(self) -> str:
        return f"{self.name}[{self.shard}/{self.num_shards}:{self.inner.describe()}]"


# ----------------------------------------------------------------------
# shard cache merging
# ----------------------------------------------------------------------
@dataclass
class MergeStats:
    """What one :func:`merge_shards` call did."""

    shards: int = 0
    merged: int = 0
    duplicates: int = 0
    per_shard: dict[str, int] = field(default_factory=dict)


def merge_shards(
    shard_dirs: Sequence[str | os.PathLike],
    dest: str | os.PathLike,
) -> MergeStats:
    """Fan per-shard cache directories into one cache directory.

    Entries are compared byte-for-byte: a key present in two shards (or
    already in ``dest``) with an identical payload is a harmless
    duplicate; a mismatched payload means two shards claim different
    results for one job identity and raises :class:`ShardMergeError` —
    that is a determinism bug upstream, never something to paper over.

    Writes are atomic (tmp + rename), so a merged directory is itself
    safe to use, or to merge again, at any point.

    Per-shard run manifests (``MANIFEST.jsonl``, written next to cache
    entries by the executor) are concatenated into the destination's
    manifest, so provenance survives the merge.
    """
    from repro.telemetry import MANIFEST_NAME, get_telemetry

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    stats = MergeStats()
    with get_telemetry().span("sweep.merge_shards"):
        for shard_dir in shard_dirs:
            shard_dir = Path(shard_dir)
            if not shard_dir.is_dir():
                raise ShardMergeError(f"shard cache directory not found: {shard_dir}")
            copied = 0
            for path in sorted(shard_dir.glob("*.pkl")):
                payload = path.read_bytes()
                target = dest / path.name
                if target.exists():
                    if target.read_bytes() != payload:
                        raise ShardMergeError(
                            f"cache key {path.stem}: payload from {shard_dir} "
                            "conflicts with an already-merged entry — shards "
                            "disagree about one job's result"
                        )
                    stats.duplicates += 1
                    continue
                tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
                tmp.write_bytes(payload)
                os.replace(tmp, target)
                copied += 1
            manifest = shard_dir / MANIFEST_NAME
            if manifest.is_file() and manifest.resolve() != (dest / MANIFEST_NAME).resolve():
                with open(dest / MANIFEST_NAME, "a", encoding="utf-8") as fh:
                    fh.write(manifest.read_text(encoding="utf-8"))
            stats.merged += copied
            stats.per_shard[str(shard_dir)] = copied
            stats.shards += 1
    return stats


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
def _local_backend(workers: int) -> ExecutionBackend:
    return ProcessPoolBackend(workers) if workers > 1 else SerialBackend()


def is_sharded_env() -> bool:
    """True when shard coordinates are present in the environment."""
    return _env_int(SHARD_ENV) is not None or _env_int(NUM_SHARDS_ENV) is not None


def _sharded_from_env(workers: int) -> ShardedBackend:
    shard = _env_int(SHARD_ENV)
    num_shards = _env_int(NUM_SHARDS_ENV)
    if shard is None or num_shards is None:
        raise SweepError(f"sharded execution needs both {SHARD_ENV} and {NUM_SHARDS_ENV} set")
    return ShardedBackend(shard, num_shards, inner=_local_backend(workers))


def make_backend(name: str, workers: int = 1) -> ExecutionBackend:
    """Construct a backend by registry name.

    ``"sharded"`` reads its shard coordinates from the environment —
    they are per-host facts, exactly what the environment is for.
    """
    if name == SerialBackend.name:
        return SerialBackend()
    if name == ProcessPoolBackend.name:
        return ProcessPoolBackend(workers)
    if name == ShardedBackend.name:
        return _sharded_from_env(workers)
    known = ", ".join((SerialBackend.name, ProcessPoolBackend.name, ShardedBackend.name))
    raise SweepError(f"unknown backend {name!r} (known: {known})")


def resolve_backend(
    backend: ExecutionBackend | str | None = None,
    workers: int = 1,
) -> ExecutionBackend:
    """The backend an executor should use.

    Precedence: an explicit backend instance, then an explicit name,
    then ``REPRO_SWEEP_BACKEND``, then sharding coordinates in the
    environment, then serial-or-pool from ``workers``.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str) and backend:
        return make_backend(backend, workers)
    env_name = os.environ.get(BACKEND_ENV, "").strip()
    if env_name:
        return make_backend(env_name, workers)
    if is_sharded_env():
        return _sharded_from_env(workers)
    return _local_backend(workers)
