"""Outside-in layer tracing: spans recorded around calls into each layer.

The traced session wraps public methods of the simulator's classes from
here, so the program itself carries no tracing code.  Each call becomes
a span (name, start, end, parent) kept in flat in-memory arrays and
written out when the session ends.  A layer's self time is its spans'
duration minus the time their child spans cover.

Spans exist only in the process that installed the wrappers: a pool
workload's layer numbers come from the executor's own parent-side
counters instead.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

#: the root span of one pass; its self time is host time no layer claims
PASS_SPAN = "bench.pass"


def _add(work: dict, key: str, amount: int) -> None:
    work[key] = work.get(key, 0) + amount


def _count_generated(work, args, result) -> None:
    if result is not None:
        _add(work, "workloads.generated_batches", 1)
        _add(work, "workloads.generated_accesses", int(result[0].size))


def _count_filtered(work, args, result) -> None:
    _add(work, "memsim.cachefilter.filtered_accesses", int(args[1].size))


def _policy_span(obj) -> str:
    return f"policies.{obj.name}.on_epoch"


#: (module, class, methods, span name or name-of(self), work counter)
#: Methods must be defined on the class itself; a subclass override is
#: listed separately.
WRAPPERS = (
    ("repro.memsim.engine", "SimulationEngine", ("run",), "memsim.engine.run", None),
    ("repro.memsim.engine", "SimulationEngine", ("step",), "memsim.engine.step", None),
    ("repro.memsim.cachefilter", "PageCacheFilter", ("filter_batch",),
     "memsim.cachefilter.filter_batch", _count_filtered),
    ("repro.workloads.base", "TraceWorkload", ("next_batch",), "workloads.next_batch",
     _count_generated),
    ("repro.workloads.kvcache", "KVCacheWorkload", ("next_batch",), "workloads.next_batch",
     _count_generated),
    ("repro.core.neoprof.device", "NeoProfDevice", ("snoop",), "core.neoprof.device.snoop",
     None),
    ("repro.core.neoprof.sketch", "CountMinSketch",
     ("update_batch", "update_estimate_batch", "estimate_batch", "hot_bits_all_set",
      "set_hot_bits", "clear", "lane_valid_counters", "lane_snapshot"),
     "core.neoprof.sketch", None),
    ("repro.core.neoprof.h3", "H3HashFamily", ("hash_batch",), "core.neoprof.h3.hash_batch",
     None),
    ("repro.core.neoprof.detector", "HotPageDetector", ("observe",),
     "core.neoprof.detector.observe", None),
    ("repro.core.neoprof.histogram", "HistogramUnit", ("compute", "compute_sparse"),
     "core.neoprof.histogram", None),
    ("repro.core.daemon", "NeoMemDaemon", ("on_epoch",), "core.daemon.on_epoch", None),
    ("repro.core.policy", "DynamicThresholdPolicy", ("update",), "core.policy.update", None),
    ("repro.core.policy", "FixedThresholdPolicy", ("update",), "core.policy.update", None),
    ("repro.policies.base", "BaseTieringPolicy", ("on_epoch",), _policy_span, None),
    ("repro.policies.first_touch", "FirstTouchPolicy", ("on_epoch",), _policy_span, None),
    ("repro.profilers.pebs", "PebsProfiler", ("observe",), "profilers.pebs.observe", None),
    ("repro.profilers.pte_scan", "PteScanProfiler", ("observe",),
     "profilers.pte_scan.observe", None),
    ("repro.profilers.hint_fault", "HintFaultProfiler", ("observe",),
     "profilers.hint_fault.observe", None),
    ("repro.memsim.migration", "MigrationEngine", ("promote", "promote_huge"),
     "memsim.migration.promote", None),
    ("repro.memsim.migration", "MigrationEngine", ("demote",), "memsim.migration.demote", None),
    ("repro.memsim.lru2q", "Lru2Q", ("touch", "forget", "deactivate", "age", "coldest"),
     "memsim.lru2q", None),
    ("repro.memsim.numa", "NumaTopology", ("first_touch_allocate",),
     "memsim.numa.first_touch_allocate", None),
    ("repro.multitenant.engine", "ColocationEngine", ("run",), "multitenant.engine.run", None),
    ("repro.multitenant.arbitration", "TenantPolicyArbiter", ("on_epoch", "quota_filter"),
     "multitenant.arbitration", None),
    ("repro.multitenant.scheduler", "TenantScheduler", ("pick",),
     "multitenant.scheduler.pick", None),
    ("repro.memsim.cache", "Cache", ("access",), "memsim.cache.access", None),
    ("repro.memsim.cache", "CacheHierarchy", ("access",), "memsim.cache.hierarchy_access", None),
    ("repro.memsim.tlb", "TLB", ("access",), "memsim.tlb.access", None),
)

#: per-layer self-time metrics: metric name -> span names summed
SELF_MS = {
    "memsim.cachefilter.filter_batch_self_ms": ("memsim.cachefilter.filter_batch",),
    "workloads.next_batch_self_ms": ("workloads.next_batch",),
    "core.neoprof.sketch.self_ms": ("core.neoprof.sketch",),
    "core.neoprof.h3.hash_batch_self_ms": ("core.neoprof.h3.hash_batch",),
    "core.neoprof.detector.observe_self_ms": ("core.neoprof.detector.observe",),
    "core.neoprof.histogram.self_ms": ("core.neoprof.histogram",),
    "core.daemon.on_epoch_self_ms": ("core.daemon.on_epoch",),
    "core.policy.update_self_ms": ("core.policy.update",),
    "profilers.pebs.observe_self_ms": ("profilers.pebs.observe",),
    "profilers.pte_scan.observe_self_ms": ("profilers.pte_scan.observe",),
    "profilers.hint_fault.observe_self_ms": ("profilers.hint_fault.observe",),
    "memsim.migration.promote_self_ms": ("memsim.migration.promote",),
    "memsim.migration.demote_self_ms": ("memsim.migration.demote",),
    "memsim.lru2q.self_ms": ("memsim.lru2q",),
    "memsim.numa.first_touch_allocate_self_ms": ("memsim.numa.first_touch_allocate",),
    "memsim.engine.step_self_ms": ("memsim.engine.step",),
    "memsim.engine.run_self_ms": ("memsim.engine.run",),
    "multitenant.engine.run_self_ms": ("multitenant.engine.run",),
    "multitenant.arbitration.self_ms": ("multitenant.arbitration",),
    "multitenant.scheduler.pick_self_ms": ("multitenant.scheduler.pick",),
    "memsim.cache.access_self_ms": ("memsim.cache.access", "memsim.cache.hierarchy_access"),
    "memsim.tlb.access_self_ms": ("memsim.tlb.access",),
}

#: every policy of the workloads' grids, by registry name
POLICIES = ("neomem", "pebs", "pte-scan", "autonuma", "tpp", "first-touch", "memtis",
            "lookahead")


def _policy_span_name(policy: str) -> str:
    return "core.daemon.on_epoch" if policy == "neomem" else f"policies.{policy}.on_epoch"


#: every span some per-layer metric reports; ``trace.named_share`` is
#: their self time over the traced passes' time
REPORTED_SPANS = frozenset(
    [span for spans in SELF_MS.values() for span in spans]
    + ["core.neoprof.device.snoop"]
    + [_policy_span_name(policy) for policy in POLICIES]
)


class SpanRecorder:
    """Flat span arrays plus the method patches that fill them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[type, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    # ------------------------------------------------------------------
    def wrap(self, cls: type, attr: str, name, counter=None) -> None:
        """Replace ``cls.attr`` with a span-recording wrapper.

        ``name`` is a span name, or a function of the bound instance
        giving one; ``counter(work, args, result)`` adds the units of
        work the call did to the ``self.work`` tallies.
        """
        original = cls.__dict__[attr]
        fixed = None if callable(name) else self.intern(name)
        open_, close, intern, work = self._open, self._close, self.intern, self.work

        @wraps(original)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else intern(name(args[0]))
            idx = open_(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                counter(work, args, result)
            return result

        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def install(self, wrappers=WRAPPERS) -> None:
        for module, class_name, methods, name, counter in wrappers:
            cls = getattr(importlib.import_module(module), class_name)
            for method in methods:
                self.wrap(cls, method, name, counter)

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans out (``numpy.load`` reads them back)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_ns`` (duration) and
        ``self_ns`` (duration minus time covered by child spans)."""
        a = self.arrays()
        if (a["end"] == 0).any():
            raise RuntimeError("totals() called with spans still open")
        duration = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_ns = duration - covered
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=duration, minlength=n)
        own = np.bincount(a["name_id"], weights=self_ns, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }


def layer_metrics(totals: dict, work: dict) -> dict[str, float]:
    """The per-layer metrics one traced session yields."""

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    out = {
        metric: sum(get(span, "self_ns") for span in spans) / 1e6
        for metric, spans in SELF_MS.items()
    }
    out["core.neoprof.device.snoop_ms"] = get("core.neoprof.device.snoop", "total_ns") / 1e6
    filtered = work.get("memsim.cachefilter.filtered_accesses", 0)
    out["memsim.cachefilter.ns_per_access"] = (
        get("memsim.cachefilter.filter_batch", "self_ns") / filtered if filtered else 0.0
    )
    generated = work.get("workloads.generated_accesses", 0)
    out["workloads.ns_per_generated_access"] = (
        get("workloads.next_batch", "self_ns") / generated if generated else 0.0
    )
    for policy in POLICIES:
        span = _policy_span_name(policy)
        calls = get(span, "calls")
        out[f"policies.{policy}.us_per_epoch"] = (
            get(span, "total_ns") / calls / 1e3 if calls else 0.0
        )
    steps = get("memsim.engine.step", "calls")
    # filter_batch runs only when the account memo misses; every engine
    # step that did not generate a batch replayed a cached trace
    generated_batches = work.get("workloads.generated_batches", 0)
    out["experiments.runner.memo_reuse_ratio"] = (
        1.0 - get("memsim.cachefilter.filter_batch", "calls") / steps if steps else 0.0
    )
    out["experiments.runner.trace_reuse_ratio"] = (
        max(0.0, 1.0 - generated_batches / steps) if steps else 0.0
    )
    traced = get(PASS_SPAN, "total_ns")
    named = sum(get(span, "self_ns") for span in REPORTED_SPANS)
    out["trace.named_share"] = named / traced if traced else 0.0
    out["trace.pass_ms"] = traced / 1e6
    return out
