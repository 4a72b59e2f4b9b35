"""Epoch-driven tiered-memory simulation engine.

The engine advances the modelled machine in epochs.  Each epoch it

1. pulls a batch of page accesses from the workload,
2. filters the batch through the LLC model to get true memory accesses,
3. books each touched page's misses on its backing tier and accumulates
   the epoch's time from core work, LLC hits, and tier latencies
   (overlapped by an MLP factor) plus bandwidth-queueing inflation,
4. maintains OS-visible state: PTE Accessed bits and the fast-node
   LRU-2Q lists,
5. invokes the active tiering policy, which may profile, re-threshold,
   and ask the migration engine through its view to migrate pages; any
   CPU overhead and migration stall the policy incurs is charged,
6. records an :class:`~repro.memsim.metrics.EpochMetrics` row.

Every page is placed before the first epoch: the constructor runs the
paper's warm-up, first-touch over the whole page space (Fig. 1-(b) NUMA
placement), and nothing ever unmaps a page.

Absolute times are not calibrated to the paper's testbed; ratios between
policies on one machine model are the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.memsim.cachefilter import PageCacheFilter
from repro.memsim.lru2q import Lru2Q
from repro.memsim.metrics import EpochMetrics, SimulationReport
from repro.memsim.migration import MigrationConfig, MigrationEngine, Promotion
from repro.memsim.numa import FAST_NODE, NumaTopology
from repro.memsim.page_table import PageTable
from repro.memsim.pageset import distinct_counts
from repro.memsim.tiers import TierSpec
from repro.telemetry import Telemetry, engine_telemetry


class Workload(Protocol):
    """What the engine needs from a workload trace generator."""

    name: str
    num_pages: int

    def next_batch(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray] | None:
        """Return ``(pages, is_write)`` arrays, or None when finished; page
        ids may have any integer dtype (:func:`check_page_ids`)."""
        ...


def check_page_ids(pages: np.ndarray, num_pages: int, owner: str) -> None:
    """Raise unless ``pages`` are integer ids in ``[0, num_pages)``."""
    if pages.dtype.kind not in "iu":
        raise TypeError(f"{owner}: page ids must be integers, got dtype {pages.dtype}")
    low, high = (pages.min(), pages.max()) if pages.size else (0, 0)
    if low < 0 or high >= num_pages:
        raise ValueError(f"{owner}: page id {low if low < 0 else high} outside [0, {num_pages})")


class Policy(Protocol):
    """What the engine needs from a tiering policy."""

    name: str

    def on_epoch(self, view: "EpochView") -> float:
        """React to one epoch; return CPU overhead in nanoseconds."""
        ...


@dataclass
class EngineConfig:
    """The machine's timing model, the run's seed and its migration rules."""

    #: memory-level parallelism: how many misses overlap.
    mlp: float = 6.0
    #: core-side work per access (ns); covers issue, L1/L2 hits, ALU work.
    cpu_ns_per_access: float = 1.0
    #: latency of an LLC hit (ns), also overlapped by MLP.
    llc_hit_ns: float = 20.0
    #: fraction of LLC misses that also write back a dirty line.
    writeback_fraction: float = 0.3
    #: LLC capacity in 4 KB pages (60 MB / 4 KB = 15360, scaled in config).
    llc_capacity_pages: int = 15360
    seed: int = 1234
    migration: MigrationConfig = field(default_factory=MigrationConfig)

    def __post_init__(self) -> None:
        if not self.mlp > 0:
            raise ValueError(f"mlp must be positive, got {self.mlp}")
        if not 0.0 <= self.writeback_fraction <= 1.0:
            raise ValueError(
                f"writeback_fraction must lie in [0, 1], got {self.writeback_fraction}"
            )
        for name in ("cpu_ns_per_access", "llc_hit_ns"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass
class EpochView:
    """Snapshot handed to the policy every epoch; its arrays are read-only.

    ``pages`` and ``miss_pages`` keep the batch's dtype, narrow unsigned on
    a replay (widen before arithmetic); ``touched_pages`` is int64.  Its
    requests go to the migration engine, which owns every tier mechanic.
    """

    epoch: int
    sim_time_ns: float
    duration_ns: float
    pages: np.ndarray
    is_write: np.ndarray
    miss_pages: np.ndarray
    touched_pages: np.ndarray
    touched_nodes: np.ndarray
    touched_misses: np.ndarray
    touched_write_misses: np.ndarray
    #: live PTE bits: the PTE-scan and hint-fault profilers set them.
    page_table: PageTable
    fast_capacity_pages: int
    telemetry: Telemetry
    _migration: MigrationEngine
    #: this epoch's promotion veto (tenant quotas): keeps what it approves.
    promotion_filter: Callable[[np.ndarray], np.ndarray] | None = None

    def promote(self, candidates: np.ndarray, thp: bool = False) -> Promotion:
        """Promote ``candidates`` through this epoch's promotion filter."""
        return self._migration.apply_promotions(candidates, self.epoch, thp, self.promotion_filter)

    def keep_watermark(self, watermark: float, target: float) -> int:
        """Demote cold fast pages if free headroom is below ``watermark``."""
        return self._migration.keep_watermark(watermark, target)

    def slow_miss_stream(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pages, requests, writes)`` a CXL-device profiler would snoop:
        the distinct slow-node pages that missed this epoch, with their
        misses and write misses.  A page that never missed sent nothing.
        """
        sel = np.flatnonzero((self.touched_nodes != FAST_NODE) & (self.touched_misses > 0))
        return self.touched_pages[sel], self.touched_misses[sel], self.touched_write_misses[sel]


def _read_only(array: np.ndarray) -> np.ndarray:
    """Freeze ``array`` in place and return it."""
    array.flags.writeable = False
    return array


#: warm-up placements shared across engines: an engine's warm-up is
#: a pure function of the seed, the page space and the node capacities,
#: and a sweep builds one engine per job over a few dozen machine shapes
#: (the paper grid uses 21).  Values are read-only.
_WARM_UPS: dict[tuple[int, ...], tuple[np.ndarray, tuple[int, ...]]] = {}
_WARM_UPS_MAX = 32


class SimulationEngine:
    """Owns the machine model and runs the epoch loop."""

    def __init__(
        self,
        workload: Workload,
        topology_spec: list[tuple[TierSpec, int]],
        policy: Policy,
        config: EngineConfig | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.workload = workload
        self.topology = NumaTopology(topology_spec)
        if self.topology.total_capacity_pages() < workload.num_pages:
            raise MemoryError(
                f"workload RSS {workload.num_pages} pages exceeds topology "
                f"capacity {self.topology.total_capacity_pages()} pages"
            )
        self.telemetry = engine_telemetry(f"{workload.name}/{policy.name}")
        self.page_table = PageTable(workload.num_pages)
        self.lru = Lru2Q(workload.num_pages, telemetry=self.telemetry)
        self.cache = PageCacheFilter(
            capacity_pages=self.config.llc_capacity_pages,
            max_page_id=workload.num_pages,
        )
        self.migration = MigrationEngine(
            self.topology,
            self.page_table,
            self.lru,
            self.config.migration,
            telemetry=self.telemetry,
        )
        self.policy = policy
        self.rng = np.random.default_rng(self.config.seed)
        #: optional per-epoch memo for trace-pure account products (miss
        #: stream, touched set, per-page misses).  These depend only on the
        #: access trace and the LLC-filter parameters — not on the policy
        #: or tier ratio — so the runner's TraceStore keeps them with
        #: each trace and replays them to every job on the same trace
        #: and filter (see repro.experiments.runner).  The object needs
        #: ``get(epoch)`` returning ``(miss_pages, touched, misses,
        #: write_misses)`` or None — a replay skips the LLC filter, so
        #: it must serve every epoch of a run or none — and
        #: ``put(epoch, ...)`` with the same fields.  Both directions
        #: pass read-only arrays, so the memo keeps and hands out views
        #: of them instead of copies.  The memo's batches were checked by
        #: the store that drained them, so only memo-less steps check ids.
        self.account_memo = None
        self.report = SimulationReport(workload=workload.name, policy=policy.name)
        self.sim_time_ns = 0.0
        self.epoch = 0
        self._warm_up()

    # ------------------------------------------------------------------
    def _warm_up(self) -> None:
        """Map every page in allocation order (the paper's warm-up).

        The workload's address space is populated during initialization
        (graph build, table load), so by measurement time the fast tier is
        already full and most of the footprint sits on CXL.  Heap allocation
        order is uncorrelated with *future* hotness — the allocator does not
        know which structures will be hot — so the warm-up touches pages in
        a deterministic pseudo-random permutation.  First-touch therefore
        captures a fast-tier-sized random sample of the hot set, which is
        exactly the regime the paper's Fig. 11 premises (and why promotion
        matters at all).

        The constructor runs it on an empty machine, so the result is a
        pure function of the seed, the page space and the node capacities:
        the first engine of each such shape records its placement and
        per-node reservations, and later ones copy them.
        """
        table, nodes = self.page_table, self.topology.nodes
        key = (self.config.seed, table.num_pages, *(n.tier.capacity_pages for n in nodes))
        warm = _WARM_UPS.get(key)
        if warm is not None:
            placement, reserved = warm
            np.copyto(table.node_of_page, placement)
            for node, count in zip(nodes, reserved):
                node.tier.reserve(count)
            return
        perm = np.random.default_rng(self.config.seed ^ 0x5EED).permutation(table.num_pages)
        self.topology.first_touch_allocate(table, perm)
        while len(_WARM_UPS) >= _WARM_UPS_MAX:
            _WARM_UPS.pop(next(iter(_WARM_UPS)))
        _WARM_UPS[key] = (
            _read_only(table.node_of_page.copy()),
            tuple(n.tier.used_pages for n in nodes),
        )

    def run(self) -> SimulationReport:
        """Run until the workload finishes."""
        while True:
            batch = self.workload.next_batch(self.rng)
            if batch is None:
                break
            self.step(*batch)
        if self.telemetry.enabled:
            self.report.annotations["telemetry"] = self.telemetry.summary()
        return self.report

    # ------------------------------------------------------------------
    def step(self, pages: np.ndarray, is_write: np.ndarray) -> EpochMetrics:
        """Simulate one epoch from an explicit access batch.

        The epoch splits into four telemetry phases — ``account`` (LLC
        filtering, timing model, traffic bookkeeping), ``profile``
        (OS-visible PTE/LRU maintenance plus the policy's own profiler
        span), ``plan`` (policy decision logic) and ``migrate`` (page
        moves, nested under ``plan``) — each timed exclusively, so the
        per-phase wall-clock totals sum without double counting.  Page ids
        of any integer dtype are not widened; memo-less steps check them.
        """
        tel = self.telemetry
        with tel.span("account"):
            # read-only views: the caller keeps its arrays, the policy
            # cannot write through the EpochView
            pages = _read_only(np.asarray(pages).view())
            is_write = _read_only(np.asarray(is_write, dtype=bool).view())
            if pages.shape != is_write.shape:
                raise ValueError("pages and is_write must have matching shapes")
            if (memo := self.account_memo) is None:  # bad ids raise before any booking
                check_page_ids(pages, self.page_table.num_pages, self.workload.name)

            cached = memo.get(self.epoch) if memo is not None else None
            if cached is not None:
                miss_pages, touched, misses, write_misses = cached
            else:
                # the batch's distinct pages feed the LLC filter and are the
                # touched set every per-page record below indexes with (int64)
                distinct, counts = distinct_counts(pages)
                touched = _read_only(distinct.astype(np.int64, copy=False))
                miss_mask, misses = self.cache.filter_batch(pages, touched, counts)
                misses = _read_only(misses.astype(np.int32))
                miss_pages = _read_only(pages[np.flatnonzero(miss_mask)])
                write_miss_pages = pages[np.flatnonzero(miss_mask & is_write)]
                write_misses = np.bincount(write_miss_pages, minlength=self.page_table.num_pages)
                write_misses = _read_only(write_misses[touched].astype(np.int32))
                if memo is not None:
                    memo.put(self.epoch, miss_pages, touched, misses, write_misses)
            touched_nodes = _read_only(self.page_table.nodes_of(touched))
            # the epoch's fast-resident touched pages, found once: they book
            # the fast node's traffic and are what the LRU-2Q lists see
            fast = np.flatnonzero(touched_nodes == FAST_NODE)
            node_misses, node_writes = self._node_traffic(touched_nodes, fast, misses, write_misses)
            llc_misses = sum(node_misses)

            duration_ns = self._epoch_time_ns(pages.size, llc_misses, node_misses, node_writes)
            metrics = self._account_traffic(
                pages.size, llc_misses, node_misses, node_writes, duration_ns
            )

        # OS-visible state updates.
        with tel.span("profile"):
            self.page_table.set_accessed(touched)
            self.lru.touch(touched[fast], self.epoch)
            if self.epoch % 8 == 0:
                # the lists hold only fast-resident pages (the migration
                # engine forgets every page it moves off the fast node)
                self.lru.age()

        # Let the policy observe and act.
        with tel.span("plan"):
            view = EpochView(
                epoch=self.epoch,
                sim_time_ns=self.sim_time_ns,
                duration_ns=duration_ns,
                pages=pages,
                is_write=is_write,
                miss_pages=miss_pages,
                touched_pages=touched,
                touched_nodes=touched_nodes,
                touched_misses=misses,
                touched_write_misses=write_misses,
                page_table=self.page_table,
                fast_capacity_pages=self.topology.fast_node.tier.capacity_pages,
                telemetry=tel,
                _migration=self.migration,
            )
            self.migration.grant_quota(duration_ns * 1e-9)
            overhead_ns = float(self.policy.on_epoch(view))
        migration_stats = self.migration.drain_stats()

        with tel.span("account"):
            metrics.profiling_overhead_ns = overhead_ns
            metrics.migration_stall_ns = migration_stats.stall_ns
            metrics.promoted_pages = migration_stats.promoted_pages
            metrics.demoted_pages = migration_stats.demoted_pages
            metrics.promoted_huge_pages = migration_stats.promoted_huge_pages
            metrics.ping_pong_events = migration_stats.ping_pong_events
            metrics.duration_ns = duration_ns + overhead_ns + migration_stats.stall_ns
            metrics.threshold = getattr(self.policy, "current_threshold", 0.0)

            self.topology.end_epoch()
            slow = self.topology.slow_nodes
            if slow:
                metrics.slow_bandwidth_util = max(n.tier.last_utilization for n in slow)
                metrics.slow_read_fraction = slow[0].tier.last_read_fraction

            self.sim_time_ns += metrics.duration_ns
            self.report.append(metrics)
            self.epoch += 1
            if tel.enabled:
                reg = tel.registry
                reg.counter("engine.epochs").inc()
                reg.counter("engine.accesses").inc(metrics.accesses)
                reg.counter("engine.llc_misses").inc(metrics.llc_misses)
                reg.counter("engine.sim_ns").inc(int(metrics.duration_ns))
                reg.histogram("engine.epoch_sim_ns").observe(int(metrics.duration_ns))
        return metrics

    # ------------------------------------------------------------------
    def _node_traffic(
        self,
        touched_nodes: np.ndarray,
        fast: np.ndarray,
        misses: np.ndarray,
        write_misses: np.ndarray,
    ) -> tuple[list[int], list[int]]:
        """Misses and write misses per node, as exact integer sums.

        The fast node sums over its touched pages ``fast`` (indices into
        the touched set), every other node but the last over its own, and
        the last node books what the others leave of the totals.
        """
        node_misses, node_writes = [], []
        for node in self.topology.nodes[:-1]:
            if node.node_id == FAST_NODE:
                own = fast
            else:
                own = np.flatnonzero(touched_nodes == node.node_id)
            node_misses.append(int(misses[own].sum()))
            node_writes.append(int(write_misses[own].sum()))
        node_misses.append(int(misses.sum()) - sum(node_misses))
        node_writes.append(int(write_misses.sum()) - sum(node_writes))
        return node_misses, node_writes

    def _epoch_time_ns(
        self,
        num_accesses: int,
        num_misses: int,
        node_misses: list[int],
        node_writes: list[int],
    ) -> float:
        cfg = self.config
        cpu_ns = num_accesses * cfg.cpu_ns_per_access
        hit_ns = (num_accesses - num_misses) * cfg.llc_hit_ns / cfg.mlp
        mem_ns = 0.0
        for node in self.topology.nodes:
            count = node_misses[node.node_id]
            if count == 0:
                continue
            writes = node_writes[node.node_id]
            reads = count - writes
            mem_ns += (
                reads * node.tier.effective_latency_ns(is_write=False)
                + writes * node.tier.effective_latency_ns(is_write=True)
            ) / cfg.mlp
        return cpu_ns + hit_ns + mem_ns

    def _account_traffic(
        self,
        num_accesses: int,
        num_misses: int,
        node_misses: list[int],
        node_writes: list[int],
        duration_ns: float,
    ) -> EpochMetrics:
        cfg = self.config
        metrics = EpochMetrics(
            epoch=self.epoch,
            sim_time_ns=self.sim_time_ns,
            accesses=num_accesses,
            llc_misses=num_misses,
        )
        seconds = duration_ns * 1e-9
        for node in self.topology.nodes:
            count = node_misses[node.node_id]
            if count == 0:
                continue
            writes = node_writes[node.node_id]
            reads = count - writes
            # demand fills + dirty writebacks, 64 B lines
            read_bytes = reads * 64
            write_bytes = writes * 64 + int(count * cfg.writeback_fraction) * 64
            node.tier.record_traffic(read_bytes, write_bytes, seconds)
            if node.node_id == FAST_NODE:
                metrics.fast_hits += count
            else:
                metrics.slow_hits += count
                metrics.slow_read_bytes += read_bytes
                metrics.slow_write_bytes += write_bytes
        return metrics
