"""Shared-memory trace plane: publish workload traces once, attach everywhere.

A sweep grid runs the same workload trace under many (policy, ratio,
system) points, and a workload trace is a pure function of its declared
identity — :meth:`~repro.workloads.base.TraceWorkload.trace_key`, the
key of the runner's in-process :class:`~repro.experiments.runner.
TraceStore`.  Before this module, every process-pool worker regenerated
every trace from scratch: the dominant cold-start cost that kept the
4-worker pool *slower* than serial on small grids.

The trace plane removes that cost structurally:

* the **parent** process materializes each distinct trace once — served
  from the trace store when a serial pass already holds it, generated
  into it otherwise — and packs it into one
  ``multiprocessing.shared_memory`` segment
  (:meth:`TracePlane.publish`);
* **workers** receive a small ``{digest: descriptor}`` table with each
  job chunk and attach zero-copy (:func:`worker_trace`): the per-epoch
  ``(pages, is_write)`` batches come back as read-only numpy views over
  the mapped segment, never pickled, never regenerated;
* the :class:`TracePlane` registry **owns segment lifetimes**: the
  parent creates and unlinks (context-manager or ``release()``), workers
  only ever attach — and because pool workers share the parent's
  resource-tracker process, a worker's exit can never tear down a
  segment the parent still owns.  Robust on both ``fork`` and ``spawn``
  start methods — nothing crosses the boundary except the descriptor
  table.

Segments are created and attached *only* through this registry — the
``SHM001`` analysis rule enforces that repo-wide.  Layout of one
segment: an ``int64`` header ``[n_epochs, pages_nbytes]``, an ``int64``
offsets array of length ``n_epochs + 1`` (element offsets shared by the
pages and is-write planes), the concatenated ``int64`` pages, then the
concatenated ``bool`` write flags.

The plane is best-effort by design: any failure to publish or attach
(no ``/dev/shm``, a released segment) falls back to per-worker
regeneration, which is bit-identical — the plane is a wall-clock
optimization, never a correctness dependency.  Disable it outright with
``REPRO_SWEEP_TRACE_PLANE=off``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.telemetry import MODE_METRICS, Telemetry

__all__ = [
    "PLANE_ENV",
    "SegmentDescriptor",
    "TracePlane",
    "consume_worker_ns",
    "install_table",
    "plane_enabled",
    "pool_initializer",
    "publish_for",
    "trace_digest",
    "worker_trace",
]

#: set to ``off``/``0``/``false`` to disable the shared-memory plane
PLANE_ENV = "REPRO_SWEEP_TRACE_PLANE"

#: segment-name prefix; short so names stay within portable limits
_NAME_PREFIX = "rpt"

_HEADER_DTYPE = np.dtype(np.int64)
_PAGES_DTYPE = np.dtype(np.int64)
_WRITE_DTYPE = np.dtype(np.bool_)


def plane_enabled() -> bool:
    """True unless ``REPRO_SWEEP_TRACE_PLANE`` turns the plane off."""
    raw = os.environ.get(PLANE_ENV, "").strip().lower()
    return raw not in ("off", "0", "false", "no")


def trace_digest(key: tuple) -> str:
    """Stable cross-process digest of a trace key.

    The key is a tuple of primitives
    (:meth:`~repro.workloads.base.TraceWorkload.trace_key`); pickling it
    at a fixed protocol is canonical for those types, so parent and
    workers — same interpreter, either start method — agree on the
    digest without sharing any state.
    """
    blob = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentDescriptor:
    """Everything a worker needs to attach one published trace."""

    name: str
    size: int
    n_epochs: int

    def header_bytes(self) -> int:
        return (2 + self.n_epochs + 1) * _HEADER_DTYPE.itemsize


def _pack_into(buf: memoryview, trace: list) -> None:
    """Write a recorded trace into a segment buffer (see module docs)."""
    n = len(trace)
    lengths = np.fromiter(
        (pages.size for pages, _ in trace), dtype=np.int64, count=n
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    header = np.frombuffer(buf, dtype=_HEADER_DTYPE, count=2 + n + 1)
    header[0] = n
    header[1] = total * _PAGES_DTYPE.itemsize
    header[2:] = offsets
    start = (2 + n + 1) * _HEADER_DTYPE.itemsize
    pages_all = np.frombuffer(buf, dtype=_PAGES_DTYPE, count=total, offset=start)
    writes_all = np.frombuffer(
        buf, dtype=_WRITE_DTYPE, count=total, offset=start + total * _PAGES_DTYPE.itemsize
    )
    for i, (pages, is_write) in enumerate(trace):
        pages_all[offsets[i] : offsets[i + 1]] = pages
        writes_all[offsets[i] : offsets[i + 1]] = is_write


def _packed_size(trace: list) -> int:
    total = sum(pages.size for pages, _ in trace)
    header = (2 + len(trace) + 1) * _HEADER_DTYPE.itemsize
    return header + total * (_PAGES_DTYPE.itemsize + _WRITE_DTYPE.itemsize)


def _unpack_views(buf: memoryview) -> list:
    """Per-epoch ``(pages, is_write)`` read-only views over a segment."""
    head = np.frombuffer(buf, dtype=_HEADER_DTYPE, count=2)
    n, pages_nbytes = int(head[0]), int(head[1])
    offsets = np.frombuffer(
        buf, dtype=_HEADER_DTYPE, count=n + 1, offset=2 * _HEADER_DTYPE.itemsize
    )
    start = (2 + n + 1) * _HEADER_DTYPE.itemsize
    total = pages_nbytes // _PAGES_DTYPE.itemsize
    pages_all = np.frombuffer(buf, dtype=_PAGES_DTYPE, count=total, offset=start)
    writes_all = np.frombuffer(
        buf, dtype=_WRITE_DTYPE, count=total, offset=start + pages_nbytes
    )
    pages_all.flags.writeable = False
    writes_all.flags.writeable = False
    return [
        (pages_all[offsets[i] : offsets[i + 1]], writes_all[offsets[i] : offsets[i + 1]])
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# the parent-side registry
# ----------------------------------------------------------------------
class TracePlane:
    """Create/own shared-memory trace segments; unlink them exactly once.

    The registry is the only object allowed to construct
    :class:`~multiprocessing.shared_memory.SharedMemory` — everything
    else goes through :meth:`publish` / :func:`worker_trace`, so segment
    lifetime has a single owner and ``/dev/shm`` can never accumulate
    orphans from normal completion, worker crashes, or executor
    exceptions (``release()`` runs in the executor's ``finally``).
    """

    def __init__(self) -> None:
        self._segments: dict[str, tuple[shared_memory.SharedMemory, SegmentDescriptor]] = {}
        self._counter = 0
        self._released = False

    # ------------------------------------------------------------------
    def __contains__(self, digest: str) -> bool:
        return digest in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def __enter__(self) -> "TracePlane":
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    # ------------------------------------------------------------------
    def publish(self, digest: str, trace: list) -> SegmentDescriptor:
        """Materialize one recorded trace as a shared-memory segment.

        The name embeds the creating pid and a counter, not the digest
        alone, so two concurrent sweeps publishing the same trace can
        never collide on a segment name.
        """
        if self._released:
            raise RuntimeError("TracePlane already released")
        if digest in self._segments:
            return self._segments[digest][1]
        name = f"{_NAME_PREFIX}{os.getpid():x}_{self._counter}_{digest[:8]}"
        self._counter += 1
        size = _packed_size(trace)
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        try:
            _pack_into(shm.buf, trace)
        except Exception:
            shm.close()
            shm.unlink()
            raise
        descriptor = SegmentDescriptor(name=name, size=size, n_epochs=len(trace))
        self._segments[digest] = (shm, descriptor)
        return descriptor

    def table(self) -> dict[str, SegmentDescriptor]:
        """The picklable ``{digest: descriptor}`` map shipped to workers."""
        return {digest: desc for digest, (_, desc) in self._segments.items()}

    def release(self) -> None:
        """Close and unlink every owned segment (idempotent).

        Workers that attached keep their mappings — ``unlink`` only
        removes the name — so in-flight jobs finish untouched while
        ``/dev/shm`` is already clean.
        """
        if self._released:
            return
        self._released = True
        segments, self._segments = self._segments, {}
        for shm, _desc in segments.values():
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()  # also unregisters from the resource tracker
            except Exception:
                pass


def publish_for(specs) -> TracePlane:
    """A plane holding every distinct trace the given JobSpecs replay.

    Only standard-runner jobs participate (custom runners own their own
    workload construction); publish failures are skipped — those jobs
    simply regenerate in the worker as before.  Traces the runner's
    :class:`~repro.experiments.runner.TraceStore` already holds (from
    the bench's serial pass, a prior ``run()``) are served from it;
    missing ones are generated into it here, once.
    """
    # deferred: runner is the plane's only intra-repo dependency and
    # importing it at module load would cycle through sweep/backends
    from repro.experiments import runner as _runner
    from repro.experiments.sweep import DEFAULT_RUNNER

    plane = TracePlane()
    seen_sigs: set[str] = set()
    for spec in specs:
        if spec.runner != DEFAULT_RUNNER:
            continue
        sig = trace_digest(
            (
                spec.workload,
                tuple(sorted((str(k), repr(v)) for k, v in spec.workload_overrides.items())),
                tuple(sorted((str(k), repr(v)) for k, v in spec.engine_overrides.items())),
                repr(spec.resolved_config()),
            )
        )
        if sig in seen_sigs:
            continue
        seen_sigs.add(sig)
        try:
            config = spec.resolved_config()
            workload = _runner.build_workload(
                spec.workload, config, **spec.workload_overrides
            )
            seed = config.engine_config(**spec.engine_overrides).seed
            digest = trace_digest(workload.trace_key(seed))
            if digest in plane:
                continue
            plane.publish(digest, _runner.TRACE_STORE.trace(workload, seed))
        except Exception:
            continue  # best-effort: the worker regenerates bit-identically
    return plane


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
#: digest -> descriptor, installed per chunk; survives across jobs so a
#: warm worker skips even the table shipping on repeat traces
_TABLE: dict[str, SegmentDescriptor] = {}

#: attached segments kept alive for the worker's lifetime (the warm
#: per-worker cache: views into these back the runner's trace store)
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}

#: dispatch-overhead ns accumulated in this process, consumed per chunk
_WORKER_NS = {"worker_warmup": 0, "shm_attach": 0}


def install_table(table: dict[str, SegmentDescriptor]) -> None:
    """Merge a plane table shipped with a job chunk (worker side)."""
    _TABLE.update(table)


def worker_trace(key: tuple) -> list | None:
    """Attach the published trace for a trace key, or ``None``.

    Returns the per-epoch ``(pages, is_write)`` list as read-only views
    over the mapped segment.  A descriptor whose segment is gone (the
    parent released the plane, or the table is stale) is dropped and the
    caller regenerates — attach is never allowed to fail a job.
    """
    if not _TABLE:
        return None
    digest = trace_digest(key)
    descriptor = _TABLE.get(digest)
    if descriptor is None:
        return None
    tel = Telemetry(MODE_METRICS)
    try:
        with tel.span("shm_attach"):
            shm = _ATTACHED.get(descriptor.name)
            if shm is None:
                # attach re-registers the name with the resource tracker
                # (CPython < 3.13), but pool workers share the parent's
                # tracker process and its cache is a set, so the extra
                # registration is a no-op the parent's unlink() clears
                shm = shared_memory.SharedMemory(name=descriptor.name)
                _ATTACHED[descriptor.name] = shm
            trace = _unpack_views(shm.buf)
    except Exception:
        _TABLE.pop(digest, None)
        return None
    _WORKER_NS["shm_attach"] += tel.phase_totals().get("shm_attach", 0)
    if len(trace) != descriptor.n_epochs:
        return None
    return trace


def close_attached() -> None:
    """Drop every worker-side attachment (tests and pool teardown)."""
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except Exception:
            pass
    _ATTACHED.clear()
    _TABLE.clear()


def consume_worker_ns() -> dict[str, int]:
    """This process's accumulated dispatch-overhead ns, then reset —
    consume-once so chunk results never double-report."""
    out = dict(_WORKER_NS)
    for name in _WORKER_NS:
        _WORKER_NS[name] = 0
    return out


#: modules a warm worker needs resident before its first job; importing
#: them in the initializer moves that cost out of every job's critical
#: path (it matters under spawn; under fork the parent's imports carry)
_WARM_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.sweep",
    "repro.memsim.engine",
    "repro.core.neoprof.sketch",
    "repro.core.neoprof.h3",
    "repro.policies",
    "repro.workloads",
)


def pool_initializer() -> None:
    """Process-pool initializer: pre-import the hot modules, once.

    Runs in each worker as it starts; the measured wall clock ships
    back with the worker's first chunk result as ``worker_warmup`` ns.
    After this, consecutive jobs on the same worker reuse everything
    process-level: imported modules, the H3 XOR-table cache, and the
    trace store (shm-attached or generated traces and their account
    products).
    """
    import importlib

    tel = Telemetry(MODE_METRICS)
    with tel.span("worker_warmup"):
        for module in _WARM_MODULES:
            try:
                importlib.import_module(module)
            except Exception:
                pass
    _WORKER_NS["worker_warmup"] += tel.phase_totals().get("worker_warmup", 0)
