"""The tiering loop every policy runs on, NeoMem included.

A policy is the engine-facing object that reacts to each epoch: it runs
its profiler, selects promotion candidates on its migration cadence, and
keeps the fast tier's free watermark by demoting cold pages.  Concrete
baselines set :attr:`profiler` and override :meth:`_select_promotions`;
the NeoMem daemon (:mod:`repro.core.daemon`) swaps in the NeoProf
device as its profiler, so every system promotes, coalesces huge pages
and demotes through the same code here.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.address import PAGES_PER_HUGE_PAGE
from repro.memsim.pageset import distinct_counts


class BaseTieringPolicy:
    """Interval-driven promote/demote loop shared by every policy.

    Args:
        migration_interval_s: Promotion cadence (Table V default 10 ms).
        demotion_watermark: Fast-node free fraction that triggers
            demotion.
        demotion_target: Free fraction the demotion pass restores.
        syscall_ns_per_page: Host cost per migrated page (move_pages).
    """

    name = "base"
    #: Transparent Huge Pages (Table VI): policies that support it set
    #: this on the instance; hot candidates are then coalesced and whole
    #: 2 MB pages migrate together.
    thp = False
    #: candidates a huge page needs before it migrates whole.
    THP_HOT_REPORTS = 2
    #: telemetry counter of the candidates each migration round selects.
    candidates_counter = "policy.promote_candidates"
    #: the :class:`~repro.profilers.base.Profiler` run every epoch;
    #: ``None`` profiles nothing.
    profiler = None

    def __init__(
        self,
        migration_interval_s: float = 0.010,
        demotion_watermark: float = 0.01,
        demotion_target: float = 0.03,
        syscall_ns_per_page: float = 300.0,
    ) -> None:
        if migration_interval_s <= 0:
            raise ValueError("migration interval must be positive")
        self.migration_interval_s = float(migration_interval_s)
        self.demotion_watermark = float(demotion_watermark)
        self.demotion_target = float(demotion_target)
        self.syscall_ns_per_page = float(syscall_ns_per_page)
        self.current_threshold = 0.0
        #: QoS arbitration hook (multi-tenant co-location): when set,
        #: promotion candidates pass through this callable first, so an
        #: arbiter can drop pages whose tenant is over its fast-tier quota.
        self.promotion_filter = None
        self._next_migration_ns = 0.0

    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """Attach to a freshly built engine; keep nothing of it.

        Every epoch hands the policy its :class:`EpochView`, so a stored
        engine would only tie policy and engine into a reference cycle
        that outlives the run until a full garbage collection.
        """

    def on_epoch(self, view) -> float:
        with view.engine.telemetry.span("profile"):
            overhead = self._profile(view)
        overhead += self._promote_due(view)
        overhead += self._watermark_demotion(view)
        return overhead

    def _promote_due(self, view) -> float:
        """Promote the selected candidates when a migration round is due."""
        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns < self._next_migration_ns:
            return 0.0
        self._next_migration_ns = now_ns + self.migration_interval_s * 1e9
        candidates = self._select_promotions(view)
        view.engine.telemetry.counter(self.candidates_counter).inc(int(candidates.size))
        if self.promotion_filter is not None and candidates.size:
            candidates = self.promotion_filter(candidates)
        if candidates.size == 0:
            return 0.0
        return self._promote(view, candidates)

    def _promote(self, view, candidates: np.ndarray) -> float:
        """Move candidates up; in THP mode, whole 2 MB pages first (Sec. VII).

        A huge page holding at least :attr:`THP_HOT_REPORTS` candidates
        migrates whole, "provided the profiled hot 4KB pages are part of
        huge pages"; the remaining candidates move as base pages.
        """
        if not self.thp:
            promoted = view.migration.promote(candidates, view.epoch)
            return promoted * self.syscall_ns_per_page
        huge_ids = candidates // PAGES_PER_HUGE_PAGE
        unique, counts = distinct_counts(huge_ids)
        qualifying = unique[counts >= self.THP_HOT_REPORTS]
        if qualifying.size and self.promotion_filter is not None:
            # a huge page migrates whole, so QoS arbitration must approve
            # its *entire* span, not just the candidates inside it — an
            # unaligned frame straddling a tenant boundary would otherwise
            # smuggle a neighbour's pages past their fast-tier quota
            spans = (
                qualifying[:, None] * PAGES_PER_HUGE_PAGE + np.arange(PAGES_PER_HUGE_PAGE)
            ).ravel()
            spans = spans[spans < view.page_table.num_pages]
            vetoed = np.setdiff1d(spans, self.promotion_filter(spans))
            qualifying = qualifying[~np.isin(qualifying, vetoed // PAGES_PER_HUGE_PAGE)]
        overhead = 0.0
        if qualifying.size:
            moved = view.migration.promote_huge(qualifying, view.epoch)
            overhead += moved * self.syscall_ns_per_page * 4
        stragglers = candidates[~np.isin(huge_ids, qualifying)]
        if stragglers.size:
            promoted = view.migration.promote(stragglers, view.epoch)
            overhead += promoted * self.syscall_ns_per_page
        return overhead

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _profile(self, view) -> float:
        """Run the profiler over the epoch; return its overhead in ns."""
        if self.profiler is None:
            return 0.0
        return self.profiler.observe(view)

    def _select_promotions(self, view) -> np.ndarray:
        """Pages to promote this migration interval."""
        return np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def _watermark_demotion(self, view) -> float:
        """Demote the coldest fast-node pages when free headroom dips.

        Victim membership keys off the topology's actual fast-node id —
        not literal node 0 — so a remapped fast node still demotes its
        own pages instead of evicting a slow node's.
        """
        fast = view.topology.fast_node.tier
        if fast.free_pages >= fast.capacity_pages * self.demotion_watermark:
            return 0.0
        want = int(fast.capacity_pages * self.demotion_target) - fast.free_pages
        member_mask = view.page_table.node_of_page == view.topology.fast_node.node_id
        victims = view.lru.coldest(want, member_mask)
        demoted = view.migration.demote(victims, charge_quota=False)
        return demoted * self.syscall_ns_per_page
