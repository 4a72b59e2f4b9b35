"""Experiment runner: build and run (workload x policy) simulations.

The single entry point every figure/table harness uses.  Workload RSS
is scaled per benchmark (``WORKLOAD_RSS_FACTOR``), the topology is sized
from the fast:slow ratio, the engine's warm-up places the footprint as
in the paper's methodology — first-touch in a random allocation order,
so the small fast tier holds a fast-tier-sized random sample of the hot
set and the rest lands on CXL — and the chosen policy runs against the
NeoMem-or-baseline machinery.
"""

from __future__ import annotations

import copy
from collections import OrderedDict

import numpy as np

from repro.experiments.config import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    WORKLOAD_RSS_FACTOR,
)
from repro.memsim.engine import SimulationEngine, check_page_ids
from repro.memsim.metrics import SimulationReport
from repro.policies import make_policy
from repro.workloads import make_workload


class TraceStore:
    """Complete workload traces and their account products, in one LRU.

    A sweep grid replays each workload trace under every system and
    ratio.  The engine's rng feeds nothing but ``next_batch``, so a
    fresh workload's trace is a pure function of its declared
    :meth:`~repro.workloads.base.TraceWorkload.trace_key`, and replaying
    it is bit-identical to generating it live.  Each entry also holds,
    per LLC-filter geometry, the per-epoch account products
    ``(miss_pages, touched, misses, write_misses)``, the last two int32
    counts per touched page.  The filter sees only the access stream
    (placement, policy and tier ratio never feed back into it), so jobs
    sharing a trace and a geometry skip the whole filter pipeline.

    Page ids (batches and miss stream) are stored as uint16 up to 65,536
    pages, else uint32 (``np.bincount`` refuses uint64), after a range
    check of each drained batch that makes the cast lossless.

    Every stored array is read-only, so replays hand out views of them
    rather than copies, and a write through one raises.  A workload
    changed after construction is refused
    (:meth:`~repro.workloads.base.TraceWorkload.check_unchanged`): its
    key would name another trace.

    :attr:`MAX_ENTRIES` traces is the only bound, which keeps resident
    traces small: the least recently used entry is evicted together with
    its products.
    """

    MAX_ENTRIES = 8

    def __init__(self) -> None:
        #: trace key -> (trace, {filter geometry: per-epoch products})
        self._entries: OrderedDict[tuple, tuple[list, dict]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def trace(self, workload, seed: int) -> list:
        """The complete ``(pages, is_write)`` trace of a fresh workload."""
        return self._entry(workload, seed)[0]

    def replay(self, workload, engine: SimulationEngine) -> "_TraceReplay":
        """Make ``engine`` replay a fresh workload's stored trace, and its
        account products for the engine's LLC filter (recording them when
        the entry has none)."""
        trace, products = self._entry(workload, engine.config.seed)
        cache = engine.cache
        geometry = (cache.capacity_pages, cache.max_page_id, cache.lines_per_page)
        replay = _TraceReplay(workload, trace, products, geometry)
        engine.workload = engine.account_memo = replay
        return replay

    def _entry(self, workload, seed: int) -> tuple[list, dict]:
        if workload.emitted != 0:
            raise ValueError(
                f"{workload.name}: {workload.emitted} batches already drained; "
                "only a fresh workload yields the trace its key names"
            )
        workload.check_unchanged()
        key = workload.trace_key(seed)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        # drain a copy: the caller's workload stays fresh for its run
        source = copy.deepcopy(workload)
        rng = np.random.default_rng(seed)
        id_dtype = np.uint16 if workload.num_pages <= 1 << 16 else np.uint32
        trace = []
        while (batch := source.next_batch(rng)) is not None:
            pages, is_write = batch
            check_page_ids(pages, workload.num_pages, workload.name)
            pages = pages.astype(id_dtype)  # a fresh array: frozen in place
            pages.flags.writeable = False
            trace.append((pages, _frozen(is_write)))
        entry = self._entries[key] = (trace, {})
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        return entry


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only for keeping.  One that is still
    writeable, or a view whose base someone may still write or unfreeze,
    is copied first, so nothing outside the store can change it."""
    if array.flags.writeable or not array.flags.owndata:
        array = array.copy()
        array.flags.writeable = False
    return array


class _TraceReplay:
    """One run's view of a store entry: the engine's workload and its
    account memo.

    Batches and products (narrow page ids) are handed out as read-only views of
    the stored arrays, whose own write flag is off: writing through an
    ``EpochView`` array raises instead of corrupting the store, and so
    does switching the flag back on.  Products are recorded when the
    entry has none for this filter geometry, and published to it once
    the trace's last epoch is recorded: a run stopped early never leaves
    a prefix that a later, longer run would fall off the end of with
    cold filter state.
    Everything else proxies to the inner workload.
    """

    def __init__(self, inner, trace: list, products: dict, geometry: tuple) -> None:
        self._inner = inner
        self._trace = trace
        self._products = products
        self._geometry = geometry
        self._served = products.get(geometry)
        self._recorded: list | None = [] if self._served is None else None

    def next_batch(self, rng):
        del rng  # the trace already consumed the stream
        if self._inner.emitted >= len(self._trace):
            return None
        pages, is_write = self._trace[self._inner.emitted]
        self._inner.emitted += 1
        return pages.view(), is_write.view()

    def get(self, epoch: int):
        if self._served is None or epoch >= len(self._served):
            return None
        return tuple(a.view() for a in self._served[epoch])

    def put(self, epoch: int, miss_pages, touched, misses, write_misses) -> None:
        recorded = self._recorded
        if recorded is not None and epoch == len(recorded):
            products = (miss_pages, touched, misses, write_misses)
            recorded.append(tuple(_frozen(array) for array in products))
            if len(recorded) == len(self._trace):
                self._products[self._geometry] = recorded
                self._recorded = None

    def __getattr__(self, name):
        return getattr(self._inner, name)


#: the process's trace store, shared by every job it runs
TRACE_STORE = TraceStore()


def workload_pages(name: str, config: ExperimentConfig) -> int:
    """Per-benchmark RSS in pages, scaled like the paper's 10-20 GB."""
    factor = WORKLOAD_RSS_FACTOR.get(name, 1.0)
    return max(1024, int(config.num_pages * factor))


def build_workload(name: str, config: ExperimentConfig, **overrides):
    defaults = dict(
        num_pages=workload_pages(name, config),
        total_batches=config.batches,
        batch_size=config.batch_size,
    )
    defaults.update(overrides)
    return make_workload(name, **defaults)


#: per-event cost attributes that scale with ExperimentConfig.overhead_scale
_PROFILER_COST_ATTRS = (
    "fault_cost_ns",
    "poison_cost_ns",
    "ns_per_sample",
    "ns_per_pte",
    "ns_per_check",
    "interrupt_ns",
)


def _apply_overhead_scale(policy, scale: float) -> None:
    """Scale a baseline policy's per-event host costs (see config docs).

    NeoMem policies receive their scaled costs through
    ``neomem_config``/``neoprof_config``; baseline policies carry real-
    machine per-event numbers, scaled here after construction.
    """
    if scale == 1.0:
        return
    if hasattr(policy, "syscall_ns_per_page"):
        policy.syscall_ns_per_page *= scale
    profiler = getattr(policy, "profiler", None)
    if profiler is not None:
        for attr in _PROFILER_COST_ATTRS:
            if hasattr(profiler, attr):
                setattr(profiler, attr, getattr(profiler, attr) * scale)


def default_policy_kwargs(
    policy_name: str,
    num_pages: int,
    config: ExperimentConfig = DEFAULT_CONFIG,
    policy_kwargs: dict | None = None,
) -> dict:
    """Scaled-run construction defaults for a policy, by figure label.

    Shared by :func:`build_engine` and the multi-tenant harness
    (:mod:`repro.experiments.colocation`), which sizes policies from the
    *combined* tenant RSS.  Explicit ``policy_kwargs`` win over defaults.
    """
    kwargs = dict(policy_kwargs or {})
    if policy_name.startswith("neomem"):
        kwargs.setdefault("neomem_config", config.neomem_config())
        kwargs.setdefault("neoprof_config", config.neoprof_config())
    if policy_name in ("autonuma", "tpp"):
        # kernel NUMA-balancing scans cover roughly the RSS every
        # few scan periods; a RSS/16 window every couple of epochs
        # reproduces that coverage rate at the scaled run length
        kwargs.setdefault("scan_interval_s", config.hint_fault_scan_interval_s)
        kwargs.setdefault("scan_window_pages", max(64, num_pages // 16))
    if policy_name == "tpp":
        # "two consecutive faults" means two faults within a couple
        # of scan periods; a scan period spans ~15 epochs here
        kwargs.setdefault("refault_epoch_gap", 32)
    if policy_name == "pte-scan":
        kwargs.setdefault("scan_interval_s", config.pte_scan_interval_s)
    if policy_name == "pebs":
        # the paper tunes 200-5000 misses/sample on the real machine;
        # event counts are compressed ~1000x in the scaled runs, so
        # the equivalent operating point samples more densely
        kwargs.setdefault("sample_interval", 150)
        kwargs.setdefault("min_samples", 1.0)
        kwargs.setdefault("decay_interval_s", config.pebs_decay_interval_s)
    if policy_name == "memtis":
        kwargs.setdefault("sample_interval", 150)
        kwargs.setdefault("min_samples", 1.0)
        kwargs.setdefault("cooling_interval_s", config.pebs_decay_interval_s)
        # Memtis's kptierd classifies and migrates on a second-scale
        # cadence, coarser than the NUMA-balancing path
        kwargs.setdefault("migration_interval_s", 4 * config.migration_interval_s)
    if not policy_name.startswith("neomem") and policy_name != "first-touch":
        kwargs.setdefault("migration_interval_s", config.migration_interval_s)
    return kwargs


def build_policy(
    policy_name: str,
    num_pages: int,
    config: ExperimentConfig = DEFAULT_CONFIG,
    policy_kwargs: dict | None = None,
):
    """Construct a policy with the scaled-run defaults applied."""
    kwargs = default_policy_kwargs(policy_name, num_pages, config, policy_kwargs)
    policy = make_policy(policy_name, num_pages, **kwargs)
    if not policy_name.startswith("neomem"):  # NeoMem's costs arrive scaled via neomem_config()
        _apply_overhead_scale(policy, config.overhead_scale)
    return policy


def topology_for(num_pages: int, config: ExperimentConfig = DEFAULT_CONFIG):
    """Fast+slow topology spec for an RSS, honouring the fast:slow ratio.

    The single sizing rule for both single-tenant engines (sized from
    one workload's RSS) and co-located machines (sized from the
    combined tenant RSS), so slowdown comparisons always run on
    identically proportioned machines.
    """
    f, s = config.ratio
    fast_pages = max(1, int(num_pages * f / (f + s)))
    slow_pages = int(num_pages * s / (f + s) + num_pages * config.slow_slack)
    return [(config.fast_spec, fast_pages), (config.slow_spec, slow_pages)]


def build_engine(
    workload,
    policy_name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    policy=None,
    policy_kwargs: dict | None = None,
) -> SimulationEngine:
    """Assemble an engine for one (workload, policy) pair.

    The topology is sized from the *workload's* RSS so the fast:slow
    ratio holds for every benchmark despite their different footprints.
    """
    topology = topology_for(workload.num_pages, config)

    if policy is None:
        policy = build_policy(policy_name, workload.num_pages, config, policy_kwargs)

    return SimulationEngine(workload, topology, policy, config.engine_config())


def run_one(
    workload_name: str,
    policy_name: str,
    config: ExperimentConfig = DEFAULT_CONFIG,
    workload_overrides: dict | None = None,
    policy_kwargs: dict | None = None,
    keep_engine: bool = False,
    policy_factory=None,
) -> SimulationReport:
    """Run one (workload, policy) experiment and return its report.

    The engine, built warmed up, replays the workload's trace from
    :data:`TRACE_STORE`.

    Args:
        keep_engine: When True, stash the finished engine (and its
            policy) in ``report.annotations`` for post-mortem inspection.
            Off by default: the engine pins every numpy array of the
            machine model, which adds up fast across parameter sweeps
            that only need the report's counters.  Reports carrying an
            engine cannot cross the sweep-executor boundary — use a
            ``JobSpec.extractor`` there instead.
        policy_factory: Optional ``factory(num_pages, config,
            **policy_kwargs)`` building the policy instead of the
            registry — the hook the sweep layer uses for experiment-
            local policies (profile-only harnesses).  Factory policies
            are used as built: ``overhead_scale`` is not applied, same
            as passing ``policy=`` to :func:`build_engine`.
    """
    workload = build_workload(workload_name, config, **(workload_overrides or {}))
    policy = None
    if policy_factory is not None:
        policy = policy_factory(workload.num_pages, config, **(policy_kwargs or {}))
    engine = build_engine(workload, policy_name, config, policy=policy, policy_kwargs=policy_kwargs)
    TRACE_STORE.replay(workload, engine)
    report = engine.run()
    if keep_engine:
        report.annotations["policy_object"] = engine.policy
        report.annotations["engine"] = engine
    return report


def geomean(values) -> float:
    """Geometric mean (the paper's summary statistic)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0 or (arr <= 0).any():
        raise ValueError("geomean needs positive values")
    return float(np.exp(np.log(arr).mean()))
