"""LRU 2Q active/inactive lists for cold-page detection.

NeoMem deliberately keeps cold-page detection in software: "Since the
detection of cold pages does not need a high resolution, NeoMem employs
the well-established LRU 2Q mechanism in the Linux kernel" (Section III).
This module models those kernel lists at page granularity:

* a page's first touch puts it on the *inactive* list;
* a touch in a later epoch while inactive promotes it to *active*;
* aging rebalances by moving the least-recently-touched active pages
  back to inactive;
* demotion candidates are taken from the inactive tail (oldest stamp).

Everything is stored in flat numpy arrays indexed by page number so the
epoch engine can update whole batches at once.
"""
# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

import numpy as np

from repro.telemetry import DISABLED, Telemetry

#: list states, consecutive: touch steps a page up from one to the next
_NONE = np.int8(0)
_INACTIVE = np.int8(1)
_ACTIVE = np.int8(2)


class Lru2Q:
    """Kernel-style 2Q lists over a flat page-number space."""

    #: the largest share of list members that aging leaves active
    ACTIVE_RATIO = 0.6

    def __init__(self, num_pages: int, telemetry: Telemetry | None = None) -> None:
        if num_pages <= 0:
            raise ValueError("need at least one page")
        self.num_pages = int(num_pages)
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._state = np.full(self.num_pages, _NONE, dtype=np.int8)
        self._stamp = np.full(self.num_pages, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    def touch(self, pages: np.ndarray, epoch: int) -> None:
        """Record that ``pages`` were accessed during ``epoch``.

        Pages seen for the first time enter the inactive list; pages
        already inactive and re-touched in a *later* epoch are promoted
        to active (the 2Q second-chance rule).  Repeats need no dedupe:
        every copy of a page gathers the same state and stamp and scatters
        the same new values back.  Only the ``lru2q.inserted_pages`` and
        ``lru2q.activated_pages`` counters would count a repeat twice, and
        both callers pass distinct pages (the engine its touched set, the
        migration engine its deduplicated move lists).
        """
        state = self._state[pages]
        # A page off the lists carries stamp -1 (forget clears state and
        # stamp together), so it is older than any epoch: a page not yet
        # active steps up one state (none -> inactive -> active) exactly
        # when its stamp is older than this epoch.
        step = (state != _ACTIVE) & (self._stamp[pages] < epoch)
        self._state[pages] = state + step
        self._stamp[pages] = epoch
        if self.telemetry.enabled:
            reg = self.telemetry.registry
            fresh = int((state == _NONE).sum())
            reg.counter("lru2q.inserted_pages").inc(fresh)
            reg.counter("lru2q.activated_pages").inc(int(step.sum()) - fresh)

    def forget(self, pages: np.ndarray) -> None:
        """Drop pages from the lists (e.g. after demotion off-node)."""
        idx = np.asarray(pages, dtype=np.int64)
        self._state[idx] = _NONE
        self._stamp[idx] = -1

    def deactivate(self, pages: np.ndarray) -> None:
        """Move pages to the inactive list head (kernel ``deactivate_page``)."""
        idx = np.asarray(pages, dtype=np.int64)
        on_list = self._state[idx] != _NONE
        self._state[idx[on_list]] = _INACTIVE

    # ------------------------------------------------------------------
    def age(self) -> int:
        """Rebalance: demote old active pages until the active share fits.

        Staleness is relative, so the stamps alone order the pages.
        Returns the number of pages moved from active to inactive.
        """
        active = (self._state == _ACTIVE).nonzero()[0]
        # every page on a list is inactive or active, the others _NONE (0)
        total = np.count_nonzero(self._state)
        excess = active.size - int(total * self.ACTIVE_RATIO)
        if excess <= 0:
            return 0
        oldest = self._oldest(active, excess)
        self._state[oldest] = _INACTIVE
        if self.telemetry.enabled:
            self.telemetry.registry.counter("lru2q.aged_pages").inc(int(oldest.size))
        return int(oldest.size)

    def coldest(self, count: int, member_mask: np.ndarray | None = None) -> np.ndarray:
        """Return up to ``count`` demotion candidates, coldest first.

        Candidates come from the inactive list ordered by stamp; if the
        inactive list runs dry the oldest active pages follow, mirroring
        kernel reclaim under pressure.
        """
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        picks = self._oldest(self._on(_INACTIVE, member_mask).nonzero()[0], count)
        if picks.size < count:
            active = self._on(_ACTIVE, member_mask).nonzero()[0]
            picks = np.concatenate([picks, self._oldest(active, count - picks.size)])
        return picks

    def _on(self, state: np.int8, member_mask: np.ndarray | None) -> np.ndarray:
        """Mask of the pages in ``state``, within ``member_mask`` if given."""
        on = self._state == state
        if member_mask is not None:
            on &= member_mask
        return on

    def _oldest(self, pages: np.ndarray, count: int) -> np.ndarray:
        """First ``count`` of ``pages`` ordered by (stamp, page number).

        The composite key ``(stamp + 1) * num_pages + page`` is unique and
        encodes that exact order, which lets an O(n) ``partition`` select
        the prefix instead of fully sorting every candidate.
        """
        if count <= 0 or pages.size == 0:
            return np.zeros(0, dtype=np.int64)
        keys = (self._stamp[pages] + 1) * self.num_pages + pages
        if count < keys.size:
            keys = np.partition(keys, count - 1)[:count]
        return np.sort(keys) % self.num_pages

    # ------------------------------------------------------------------
    def active_count(self, member_mask: np.ndarray | None = None) -> int:
        return np.count_nonzero(self._on(_ACTIVE, member_mask))

    def inactive_count(self, member_mask: np.ndarray | None = None) -> int:
        return np.count_nonzero(self._on(_INACTIVE, member_mask))

    def state_of(self, page: int) -> str:
        """Human-readable list membership of one page."""
        return {0: "none", 1: "inactive", 2: "active"}[int(self._state[page])]
