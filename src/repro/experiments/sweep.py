"""Declarative sweep subsystem: JobSpecs, execution, sharding, caching.

Every figure/table reproduction is a sweep over (workload x policy x
parameter) points, and every point is one self-contained simulation.
This module turns that structure into data:

* :class:`JobSpec` — a serializable description of one experiment
  point: workload, policy, configuration, seed, and (for non-standard
  runs) dotted-path references to a policy factory, a result extractor,
  or an alternative runner.  A spec fully determines its result.
* :class:`SweepExecutor` — runs a list of JobSpecs on one
  :class:`~repro.experiments.backends.ProcessPoolBackend`: inline at
  one worker (the deterministic default), or a warm process pool fed
  heaviest-first (``workers=`` / ``REPRO_SWEEP_WORKERS``).  On a host
  whose environment names a shard (``REPRO_SWEEP_SHARD`` /
  ``REPRO_SWEEP_NUM_SHARDS``) it runs only the jobs that shard owns
  (:func:`shard_of`) and marks the rest :data:`SHARD_SKIPPED`;
  :func:`~repro.experiments.backends.merge_shards` fans the per-shard
  caches back together.
* an on-disk result cache keyed by :func:`job_key` — a stable hash of
  the spec's canonical JSON, salted with a fingerprint of the simulator
  sources so editing the models invalidates stale entries — so repeated
  benchmark runs skip completed points.  Enable it with ``cache_dir=``
  or ``REPRO_SWEEP_CACHE``.

Because jobs cross process boundaries, results must pickle.  The
executor verifies this *before* handing a result back (or to the pool),
so a policy that stashes an engine in ``report.annotations`` produces a
:class:`SweepSerializationError` naming the offending keys instead of a
raw ``PicklingError`` from the pool machinery.  Experiments that need
post-run object state (profiler counters, daemon timelines) declare an
``extractor`` — a dotted-path function running *in the worker*, with
the live engine, that reduces that state to plain picklable data.

Determinism: a spec's seed is part of its identity and the simulation
is seeded end-to-end, so the same JobSpec list produces bit-identical
reports inline, on the pool, and merged from shards — a property the
test suite pins down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import pickle
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import run_one
from repro.telemetry import (
    append_manifest,
    get_telemetry,
    manifest_record,
)

__all__ = [
    "JobSpec",
    "SweepExecutor",
    "SweepStats",
    "SweepError",
    "SweepSerializationError",
    "SHARD_SKIPPED",
    "job_key",
    "resolve",
    "resolve_executor",
    "run_single",
    "shard_of",
    "source_fingerprint",
    "WORKERS_ENV",
    "CACHE_ENV",
    "SHARD_ENV",
    "NUM_SHARDS_ENV",
]

#: environment knobs honoured by SweepExecutor's defaults
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
CACHE_ENV = "REPRO_SWEEP_CACHE"
#: this host's shard index, 0-based
SHARD_ENV = "REPRO_SWEEP_SHARD"
#: total number of shards splitting the job list
NUM_SHARDS_ENV = "REPRO_SWEEP_NUM_SHARDS"

#: bump to invalidate every cached result (part of the key preimage)
CACHE_SCHEMA_VERSION = 2

#: the standard runner: one run_one() invocation
DEFAULT_RUNNER = "repro.experiments.sweep:run_single"


class SweepError(RuntimeError):
    """A sweep could not be described or executed."""


class SweepSerializationError(SweepError):
    """A job produced a result that cannot cross the process/cache
    boundary (typically a live engine or policy in ``annotations``)."""


def _env_int(name: str) -> int | None:
    """An integer environment knob, ``None`` when unset or blank."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise SweepError(f"{name} must be an integer, got {raw!r}") from exc


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One experiment point, fully described as data.

    The default runner reproduces ``run_one(workload, policy, config,
    ...)`` exactly.  Non-standard experiments plug in behaviour by
    *name* (dotted ``"module:function"`` paths), never by object, so a
    spec always pickles and always hashes:

    * ``policy_factory(num_pages, config, **policy_kwargs)`` builds the
      policy instead of the registry (profile-only harnesses);
    * ``extractor(report, engine)`` runs in the worker after the
      simulation and must reduce any engine/policy state it needs into
      picklable ``report.annotations`` entries;
    * ``runner(spec)`` replaces the whole execution (co-location runs,
      ablation streams) and may return any picklable result.

    ``tag`` is a caller-side label for routing results; it is *not*
    part of the job's identity, so differently-tagged but otherwise
    equal specs share one cache entry.
    """

    workload: str = ""
    policy: str = ""
    config: ExperimentConfig = DEFAULT_CONFIG
    #: overrides config.seed when set (the sweep's seed axis)
    seed: int | None = None
    workload_overrides: dict = field(default_factory=dict)
    policy_kwargs: dict = field(default_factory=dict)
    policy_factory: str | None = None
    extractor: str | None = None
    runner: str = DEFAULT_RUNNER
    runner_kwargs: dict = field(default_factory=dict)
    tag: str = ""

    def resolved_config(self) -> ExperimentConfig:
        """The experiment configuration with the spec's seed applied."""
        if self.seed is None:
            return self.config
        return replace(self.config, seed=self.seed)

    def label(self) -> str:
        """Human-readable identity for error messages and logs."""
        base = f"{self.workload or '?'}/{self.policy or '?'}"
        return f"{base}[{self.tag}]" if self.tag else base


# ----------------------------------------------------------------------
# stable hashing
# ----------------------------------------------------------------------
#: leaf types ``_canonical`` returns as they are; exact types only, so a
#: subclass (``np.float64``, an ``IntEnum``) takes the checks it always took
_PLAIN_LEAVES = frozenset({str, int, float, bool, type(None)})


def _canonical(obj):
    """Reduce a value to canonical JSON-able data.

    Used for JobSpec fields (the job key) and job results (the sweep
    digest).  Dataclasses are tagged with their type name so two config
    classes with coincidentally equal fields cannot collide.
    """
    if type(obj) in _PLAIN_LEAVES:  # most leaves: skip the checks below
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise SweepError(
        f"values must be plain data, got {type(obj).__name__}: {obj!r} "
        "(pass callables as dotted 'module:function' paths instead)"
    )


#: test hook: point the source fingerprint at an alternative tree
_SOURCE_ROOT: str | os.PathLike | None = None


@lru_cache(maxsize=8)
def _tree_fingerprint(root: Path | None) -> str:
    if root is None:  # the package's own tree, resolved once per process
        import repro  # deferred: repro/__init__ imports the experiments tier

        root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def source_fingerprint(root: str | os.PathLike | None = None) -> str:
    """Content hash of every ``*.py`` under the simulator sources.

    Part of every cache key: a sweep result is a function of the spec
    *and* the code that computed it, so editing a model, policy or
    workload invalidates stale entries automatically instead of
    requiring a version bump or a manual cache wipe.  Hashed once per
    process (the tree is ~125 small files; the cost is milliseconds).
    An explicit ``root`` or ``_SOURCE_ROOT`` is resolved on every call.
    """
    if root is None:
        root = _SOURCE_ROOT
    return _tree_fingerprint(None if root is None else Path(root).resolve())


def job_key(spec: JobSpec) -> str:
    """Stable content hash of a JobSpec (the cache key).

    ``tag`` is excluded — it labels results, it does not change them.
    The repro version, a schema number and the simulator-source
    fingerprint salt the key so stale caches invalidate across releases
    *and* across code edits.
    """
    import repro  # deferred: repro/__init__ imports the experiments tier

    # seed=None and an explicit seed equal to config.seed resolve to the
    # identical simulation, so they must share one identity (and one
    # cache entry)
    payload = _canonical(dataclasses.replace(spec, tag="", seed=spec.resolved_config().seed))
    payload["__cache_schema__"] = CACHE_SCHEMA_VERSION
    payload["__repro_version__"] = repro.__version__
    payload["__source_fingerprint__"] = source_fingerprint()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# deterministic sharding
# ----------------------------------------------------------------------
class _ShardSkipped:
    """Marker returned for jobs belonging to another shard."""

    def __repr__(self) -> str:
        return "<shard-skipped>"

    def __reduce__(self) -> str:
        # pickles by reference: an unpickled marker is SHARD_SKIPPED itself
        return "SHARD_SKIPPED"


SHARD_SKIPPED = _ShardSkipped()


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


def _shard_from_env() -> tuple[int, int] | None:
    """This host's ``(shard, num_shards)`` from the environment, or
    ``None`` when neither variable is set."""
    shard = _env_int(SHARD_ENV)
    num_shards = _env_int(NUM_SHARDS_ENV)
    if shard is None and num_shards is None:
        return None
    if shard is None or num_shards is None:
        raise SweepError(f"sharded execution needs both {SHARD_ENV} and {NUM_SHARDS_ENV} set")
    _validate_sharding(shard, num_shards)
    return shard, num_shards


# ----------------------------------------------------------------------
# dotted-path resolution and the standard runner
# ----------------------------------------------------------------------
def resolve(path: str):
    """Resolve a ``"module:attribute"`` reference to the live object."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise SweepError(f"expected 'module:function', got {path!r}")
    try:
        module = importlib.import_module(module_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise SweepError(f"cannot resolve {path!r}: {exc}") from exc


def run_single(spec: JobSpec):
    """The default runner: one ``run_one`` invocation described by the
    spec, with the extractor (if any) applied while the engine is live."""
    config = spec.resolved_config()
    factory = resolve(spec.policy_factory) if spec.policy_factory else None
    report = run_one(
        spec.workload,
        spec.policy,
        config,
        workload_overrides=dict(spec.workload_overrides),
        policy_kwargs=dict(spec.policy_kwargs),
        keep_engine=spec.extractor is not None,
        policy_factory=factory,
    )
    if spec.extractor is not None:
        engine = report.annotations.pop("engine")
        report.annotations.pop("policy_object", None)
        resolve(spec.extractor)(report, engine)
    return report


# ----------------------------------------------------------------------
# result sanitization
# ----------------------------------------------------------------------
def _picklable(obj) -> bool:
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


#: the run_one(keep_engine=True) contract keys — live machine objects
#: that must never ride a report across the sweep boundary
_KEEP_ENGINE_KEYS = ("engine", "policy_object")


def _is_live_engine(value) -> bool:
    from repro.memsim.engine import SimulationEngine

    return isinstance(value, SimulationEngine)


def _sanitize_result(result, spec: JobSpec):
    """Guarantee a job result can cross the process/cache boundary.

    Rejects reports still carrying ``run_one(keep_engine=True)`` state
    and any result that does not pickle, raising
    :class:`SweepSerializationError` that names the offending annotation
    keys when there are any.

    The happy path costs one pickle of the whole result; the
    per-annotation scan only runs once something is already wrong.
    """
    annotations = getattr(result, "annotations", None)
    if not isinstance(annotations, dict):
        annotations = {}
    # live machine objects are rejected even when they pickle: shipping
    # a whole machine model through pools and caches is a bug, not a
    # result.  This scan is cheap (no serialization).
    bad = sorted(k for k, v in annotations.items() if k in _KEEP_ENGINE_KEYS or _is_live_engine(v))
    if not bad:
        if _picklable(result):
            return result
        bad = sorted(k for k, v in annotations.items() if not _picklable(v))
    if bad:
        raise SweepSerializationError(
            f"job {spec.label()}: annotations {bad} cannot cross the "
            "sweep boundary (live engines/policies from run_one("
            "keep_engine=True), or values that do not pickle) — use a "
            "JobSpec.extractor to reduce them to plain data"
        )
    raise SweepSerializationError(
        f"job {spec.label()}: result of type {type(result).__name__} is not "
        "picklable and cannot be returned from a sweep"
    )


def _execute_job(spec: JobSpec):
    """Run one spec in this process and sanitize its result."""
    return _sanitize_result(resolve(spec.runner)(spec), spec)


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
#: sentinel distinguishing "no cache entry" from a cached None result
_CACHE_MISS = object()


@dataclass
class SweepStats:
    """Counters for one executor's lifetime (all ``run`` calls)."""

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0
    #: uncached jobs left to other shards
    shard_skipped: int = 0
    #: accumulated dispatch-overhead ns by phase (``job_pickle``: the
    #: process pool pickling its chunks)
    dispatch_ns: dict = field(default_factory=dict)


class SweepExecutor:
    """Run JobSpecs on a process-pool backend, with caching and sharding.

    Args:
        workers: Worker count for the default backend.  ``None`` reads
            ``REPRO_SWEEP_WORKERS``, defaulting to 1 (inline,
            deterministic, no pool overhead).
        cache_dir: Result-cache directory.  ``None`` reads
            ``REPRO_SWEEP_CACHE``; unset means no caching, and ``""``
            forces caching off regardless of the environment.  Entries
            are pickled results keyed by :func:`job_key`, written
            atomically, safe to share between concurrent runs.
        backend: A :class:`~repro.experiments.backends.ProcessPoolBackend`
            to run on, ``"serial"`` (one worker), ``"process-pool"``
            (``workers`` of them), or ``None``: ``workers`` of them on
            this host's shard, read from ``REPRO_SWEEP_SHARD`` /
            ``REPRO_SWEEP_NUM_SHARDS`` into ``shard``.  A named or
            given backend runs every job.

    Identical specs within one ``run`` call execute once and share the
    result; results always come back in job order.  On a shard, an
    uncached job the shard does not own comes back as the
    :data:`SHARD_SKIPPED` marker — harness aggregation only makes sense
    after :func:`~repro.experiments.backends.merge_shards` fans the
    per-shard caches back together.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        backend=None,
    ):
        # deferred: backends imports this module for JobSpec/job_key
        from repro.experiments.backends import ProcessPoolBackend

        #: ``(shard, num_shards)`` this host runs, or ``None`` for all jobs
        self.shard = _shard_from_env() if backend is None else None
        if backend is None or backend == "process-pool":
            if workers is None:
                env = _env_int(WORKERS_ENV)
                workers = 1 if env is None else env
            backend = ProcessPoolBackend(workers)
        elif backend == "serial":
            backend = ProcessPoolBackend(1)
        elif not isinstance(backend, ProcessPoolBackend):
            raise SweepError(
                f"unknown backend {backend!r} (known: 'serial', 'process-pool', "
                "or a ProcessPoolBackend)"
            )
        self.backend = backend
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV, "").strip() or None
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir is not None:
            # eagerly: a shard owning zero jobs must still produce a
            # (valid, empty) cache directory for merge_shards/artifacts
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = SweepStats()

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[JobSpec], *, allow_partial: bool = False) -> list:
        """Execute every job, returning results in job order.

        On a shard, uncached jobs the shard does not own come back as
        skip markers.  Aggregating over such a partial slice is
        meaningless, so by default the run fails fast; the sharded
        driver (``sweep_cli run``) passes ``allow_partial=True`` because
        the cache slice, not the return value, is its output.
        """
        tel = get_telemetry()
        jobs = list(jobs)
        keys = [job_key(spec) for spec in jobs]
        # an unsharded host is shard 0 of 1: it owns every job
        shard, num_shards = self.shard or (0, 1)
        results: dict[str, object] = {}
        pending: dict[str, JobSpec] = {}
        with tel.span("sweep.cache_lookup"):
            for spec, key in zip(jobs, keys):
                if key in results or key in pending:
                    self.stats.deduplicated += 1
                    continue
                cached = self._cache_load(key)
                if cached is not _CACHE_MISS:
                    results[key] = cached
                    self.stats.cache_hits += 1
                    continue
                # after the lookup: a cached result is served on any shard
                if _shard_of_key(key, num_shards) != shard:
                    results[key] = SHARD_SKIPPED
                    self.stats.shard_skipped += 1
                    continue
                pending[key] = spec
        if pending:
            with tel.span("sweep.dispatch"):
                executed = self.backend.execute(list(pending.values()), keys=list(pending))
            for phase, ns in self.backend.last_dispatch_ns.items():
                self.stats.dispatch_ns[phase] = self.stats.dispatch_ns.get(phase, 0) + ns
            walls = self.backend.last_job_wall_ns
            for key, result, wall_ns in zip(pending, executed, walls):
                results[key] = result
                if self.cache_dir is not None:
                    self.stats.cache_misses += 1
                self._cache_store(key, result)
                self._manifest_store(key, pending[key], result, wall_ns=wall_ns)
                self.stats.executed += 1
        out = [results[key] for key in keys]
        if not allow_partial and any(result is SHARD_SKIPPED for result in out):
            raise SweepError(
                "run() returned shard-skipped results — a sharded run "
                "produces a per-shard cache slice, not a result set; run "
                "every shard (sweep_cli run), merge_shards() the caches, "
                "then re-run unsharded against the merged cache"
            )
        return out

    def close(self) -> None:
        """Release backend resources (the warm worker pool).  Idempotent;
        an executor keeps working after ``close`` — the next parallel
        ``run`` simply pays pool startup again."""
        self.backend.close()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def is_cached(self, spec: JobSpec) -> bool:
        """True when this spec's result is already in the on-disk cache
        (always False with caching disabled)."""
        path = self._cache_path(job_key(spec))
        return path is not None and path.exists()

    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.pkl"

    def _cache_load(self, key: str):
        """Return the cached result, or ``_CACHE_MISS`` when absent —
        a sentinel, so a legitimately-``None`` job result still hits."""
        path = self._cache_path(key)
        if path is None or not path.exists():
            return _CACHE_MISS
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            # a torn or stale entry is a miss, not an error
            path.unlink(missing_ok=True)
            return _CACHE_MISS

    def _cache_store(self, key: str, result) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def _manifest_store(self, key: str, spec: JobSpec, result, wall_ns: int | None = None) -> None:
        """Append a provenance record next to the cache entry just stored.

        The manifest (``MANIFEST.jsonl``) records what produced each
        cached result — job key, label, seed, git revision, measured
        wall clock, and (on telemetry runs) per-phase totals — so a
        cache directory is auditable after the fact.
        """
        if self.cache_dir is None:
            return
        wall_s = wall_ns / 1e9 if wall_ns else None
        append_manifest(
            self.cache_dir,
            manifest_record(key, spec.label(), spec.resolved_config().seed, result, wall_s=wall_s),
        )


def resolve_executor(executor: SweepExecutor | None = None) -> SweepExecutor:
    """The executor every ``run_*`` harness uses: the caller's, or a
    fresh one configured by the environment (``REPRO_SWEEP_WORKERS``,
    ``REPRO_SWEEP_CACHE``, ``REPRO_SWEEP_SHARD`` + ``_NUM_SHARDS``)."""
    return executor if executor is not None else SweepExecutor()
