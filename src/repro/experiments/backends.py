"""The sweep's execution backend and shard-cache merging.

:class:`~repro.experiments.sweep.SweepExecutor` owns spec hashing,
dedup, sharding and the result cache; :class:`ProcessPoolBackend` owns
only how the pending jobs run.  At one worker, or for a single job, it
runs them inline in this process.  Otherwise it fans them over a
*persistent, warm* ``ProcessPoolExecutor``: workers start once and keep
their process-level caches (the runner's trace store, the H3 tables)
across ``run`` calls, and jobs ship as pre-pickled chunks, heaviest
first.

A job's shard is its content hash modulo the shard count
(:func:`~repro.experiments.sweep.shard_of`), so N independent hosts (CI
runners, cluster nodes) each run their slice against a private cache
directory; :func:`merge_shards` then fans the per-shard caches into one
directory, erroring on key collisions whose payloads disagree.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.experiments.runner import workload_pages
from repro.experiments.sweep import JobSpec, SweepError, _execute_job, job_key
from repro.telemetry import (
    MODE_METRICS,
    Telemetry,
    append_manifest,
    get_telemetry,
    read_manifest,
)

__all__ = [
    "ProcessPoolBackend",
    "ShardMergeError",
    "MergeStats",
    "merge_shards",
]


class ShardMergeError(SweepError):
    """Per-shard caches disagree about a cache key's payload."""


def _timed_execute_job(spec: JobSpec):
    """Run one job under a local wall-clock span; returns
    ``(result, wall_ns)``.  The span comes from a private metrics-mode
    Telemetry so measurement works regardless of the global mode."""
    tel = Telemetry(MODE_METRICS)
    with tel.span("job"):
        result = _execute_job(spec)
    return result, tel.phase_totals().get("job", 0)


def _execute_inline(specs: Sequence[JobSpec]) -> tuple[list, list]:
    """Run specs one after another in this process: results and walls."""
    results = []
    walls: list[int] = []
    for spec in specs:
        result, wall_ns = _timed_execute_job(spec)
        results.append(result)
        walls.append(wall_ns)
    return results, walls


def _execute_chunk(blob: bytes) -> tuple[list, list]:
    """Process-pool entry point for one pre-pickled spec list: every
    spec's result and measured wall clock."""
    return _execute_inline(pickle.loads(blob))


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


class ProcessPoolBackend:
    """Run jobs inline, or fan them over a persistent, warm
    ``ProcessPoolExecutor``.

    A batch of one job (or ``workers=1``) runs inline — the pool buys
    nothing there.  Otherwise the pool outlives ``execute`` calls:
    workers start once and keep their process-level caches — the
    runner's trace store (traces and their account products), the H3
    XOR tables — across batches, so consecutive jobs on a warm worker
    skip setup.  Jobs ship as pre-pickled chunks (amortizing
    pickle/IPC, measured under a ``job_pickle`` span), heaviest first.

    After ``execute`` returns, ``last_job_wall_ns`` holds one measured
    wall clock per spec and ``last_dispatch_ns`` the dispatch-overhead
    breakdown — the executor feeds both into run manifests and bench
    records.

    Call :meth:`close` (or let the executor's context manager do it) to
    shut the pool down; a broken pool (worker crash) is disposed and
    the next ``execute`` starts a fresh one.
    """

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self.last_job_wall_ns: list[int] = []
        self.last_dispatch_ns: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context(self.start_method) if self.start_method else None
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
    def execute(self, specs: Sequence[JobSpec], keys: Sequence[str] | None = None) -> list:
        """Run every spec, returning sanitized results in spec order.

        ``keys`` are the specs' precomputed :func:`job_key` hashes when
        the caller already has them (the executor always does); the
        heaviest-first order breaks ties by key.
        """
        self.last_dispatch_ns = {}
        if self.workers <= 1 or len(specs) <= 1:
            results, self.last_job_wall_ns = _execute_inline(specs)
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
                payload = [specs[i] for i in chunk]
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
        """Human-readable identity for logs and stats lines."""
        return f"process-pool[{self.workers}]"


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

    The run-manifest records (``MANIFEST.jsonl``, written next to cache
    entries by the executor) of the entries a call copies join the
    destination's manifest, so provenance survives the merge and a
    repeated merge adds no duplicate records.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    stats = MergeStats()
    with get_telemetry().span("sweep.merge_shards"):
        for shard_dir in shard_dirs:
            shard_dir = Path(shard_dir)
            if not shard_dir.is_dir():
                raise ShardMergeError(f"shard cache directory not found: {shard_dir}")
            copied: set[str] = set()
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
                copied.add(path.stem)
            for record in read_manifest(shard_dir):
                if record["key"] in copied:
                    append_manifest(dest, record)
            stats.merged += len(copied)
            stats.per_shard[str(shard_dir)] = len(copied)
            stats.shards += 1
    return stats
