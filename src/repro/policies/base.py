"""The tiering loop every policy runs on, NeoMem included.

A policy is the engine-facing object that reacts to each epoch: it runs
its profiler, selects promotion candidates on its migration cadence, and
names the fast tier's free watermark.  Concrete baselines set
:attr:`profiler` and override :meth:`_select_promotions`; the NeoMem
daemon (:mod:`repro.core.daemon`) swaps in the NeoProf device as its
profiler.  Every policy only chooses: the epoch view hands its choice
to the migration engine, which applies the promotion veto, huge-page
coalescing and watermark demotion.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.migration import Promotion


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
        self._next_migration_ns = 0.0

    # ------------------------------------------------------------------
    def on_epoch(self, view) -> float:
        with view.telemetry.span("profile"):
            overhead = self._profile(view)
        overhead += self._syscall_ns(self._promote_due(view))
        overhead += self._watermark_demotion(view)
        return overhead

    def _promote_due(self, view) -> Promotion:
        """Promote the selected candidates when a migration round is due."""
        now_ns = view.sim_time_ns + view.duration_ns
        if now_ns < self._next_migration_ns:
            return Promotion()
        self._next_migration_ns = now_ns + self.migration_interval_s * 1e9
        candidates = self._select_promotions(view)
        view.telemetry.counter(self.candidates_counter).inc(int(candidates.size))
        return view.promote(candidates, self.thp)

    def _syscall_ns(self, promotion: Promotion) -> float:
        """Host cost of a promotion: a 2 MB move costs four base-page moves."""
        return (promotion.base_pages + 4 * promotion.huge_pages) * self.syscall_ns_per_page

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
        """Demote the coldest fast-node pages when free headroom dips."""
        demoted = view.keep_watermark(self.demotion_watermark, self.demotion_target)
        return demoted * self.syscall_ns_per_page
