"""Page promotion / demotion engine with quota and ping-pong accounting.

Models the kernel migration path NeoMem invokes (Section III ``7``); a
policy only chooses pages, and this engine applies the choice:

* **promotion** moves the candidates a veto (tenant quotas) keeps from a
  slow node to the fast node, in THP mode as whole 2 MB pages, first
  demoting cold pages (chosen by the LRU-2Q lists) if the fast node lacks
  headroom;
* **demotion** moves cold pages the other way, also to keep a policy's
  free watermark on the fast node;
* a **migration quota** (``m_quota``, Table V: 256 MB/s default) caps the
  bytes moved per second — requests beyond the quota are dropped, exactly
  like the kernel rate limiter;
* the **PG_demoted** flag implements the paper's ping-pong detection: a
  promotion of a page that was previously demoted counts as one
  ping-pong event;
* each migrated page costs copy time charged to the epoch as a stall
  (page copy + PTE fixup + TLB shootdown).
"""

# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.memsim.address import PAGE_SIZE, PAGES_PER_HUGE_PAGE
from repro.memsim.lru2q import Lru2Q
from repro.memsim.numa import FAST_NODE, NumaTopology
from repro.memsim.page_table import PageTable
from repro.memsim.pageset import distinct_counts, first_occurrence
from repro.telemetry import DISABLED, Telemetry


@dataclass
class MigrationStats:
    """Counters for one accounting window (an epoch)."""

    promoted_pages: int = 0
    demoted_pages: int = 0
    promoted_huge_pages: int = 0
    ping_pong_events: int = 0
    quota_dropped_pages: int = 0
    stall_ns: float = 0.0


@dataclass(frozen=True)
class Promotion:
    """What one :meth:`MigrationEngine.apply_promotions` call moved: base
    ``pages`` mapped up (huge-page members included), of them ``base_pages``
    one by one, ``huge_pages`` 2 MB frames whole, and ``ping_pong`` events."""

    pages: int = 0
    base_pages: int = 0
    huge_pages: int = 0
    ping_pong: int = 0


@dataclass
class MigrationConfig:
    """Migration-path knobs (defaults from Table V)."""

    quota_bytes_per_s: float = 256 * 1024 * 1024
    #: per-page migration cost: 4 KB copy at ~10 GB/s plus PTE fixup and
    #: TLB shootdown, amortized; ~2 us/page matches kernel measurements.
    page_copy_ns: float = 2_000.0
    #: huge pages copy 512x the data but amortize the fixed costs.
    huge_page_copy_ns: float = 160_000.0
    #: demotion headroom: promotions keep this fraction of the fast node free.
    fast_free_target: float = 0.02
    #: Tier residency semantics.  ``"exclusive"`` (the default, and the
    #: only behaviour before tier modes existed): a page lives in exactly
    #: one tier; promotion releases the slow-tier frame.  ``"inclusive"``:
    #: promotion *keeps* the slow-tier frame reserved as a shadow copy
    #: (CPU-cache-style inclusion, counted against slow capacity), so a
    #: later demotion of a still-shadowed page is a free drop — no copy,
    #: no quota — because the slow copy never went stale.  That is sound
    #: for write-once traffic (KV-cache blocks are immutable after
    #: append) and is exactly the HBM-inclusive mode of the KV-placement
    #: simulators this repo's kvcache workload ports.
    tier_mode: str = "exclusive"

    def __post_init__(self) -> None:
        if self.tier_mode not in ("exclusive", "inclusive"):
            raise ValueError(
                f"tier_mode must be 'exclusive' or 'inclusive', got {self.tier_mode!r}"
            )


class MigrationEngine:
    """Executes promotions/demotions against the topology and page table."""

    def __init__(
        self,
        topology: NumaTopology,
        page_table: PageTable,
        lru: Lru2Q,
        config: MigrationConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.topology = topology
        self.page_table = page_table
        self.lru = lru
        self.config = config or MigrationConfig()
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.stats = MigrationStats()
        self._window_budget_bytes = 0.0
        self._window_drained = False
        self._inclusive = self.config.tier_mode == "inclusive"
        # inclusive mode: which slow node still holds each fast-resident
        # page's shadow frame (-1 = none); stays all -1 in exclusive mode
        self._shadow_node = np.full(page_table.num_pages, -1, dtype=np.int16)

    @property
    def shadow_node(self) -> np.ndarray:
        """Read-only view of the inclusive-mode shadow map (tests/metrics)."""
        view = self._shadow_node.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # quota
    # ------------------------------------------------------------------
    #: budget accrual cap, in seconds of quota (token-bucket burst size).
    QUOTA_BURST_S = 0.25

    def grant_quota(self, window_s: float) -> None:
        """Accrue rate-limit budget for ``window_s`` seconds (token bucket).

        Policies act in bursts (e.g. every ``migration_interval``) while
        the engine grants budget every epoch, so unused budget carries
        over, capped at :attr:`QUOTA_BURST_S` seconds' worth.
        """
        self._window_budget_bytes = min(
            self._window_budget_bytes + self.config.quota_bytes_per_s * window_s,
            self.config.quota_bytes_per_s * self.QUOTA_BURST_S,
        )
        # a grant opens a new accounting window: stats may (and in the
        # engine loop, must) be drained exactly once before the next one
        self._window_drained = False

    def _charge_quota(self, pages_wanted: int, bytes_per_page: int) -> int:
        """Clamp a request to the remaining window budget (in pages)."""
        affordable = int(self._window_budget_bytes // bytes_per_page)
        granted = min(pages_wanted, affordable)
        self._window_budget_bytes -= granted * bytes_per_page
        if granted < pages_wanted:
            self.stats.quota_dropped_pages += pages_wanted - granted
        return granted

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    #: candidates a huge page needs before it migrates whole.
    THP_HOT_REPORTS = 2

    def apply_promotions(
        self,
        candidates: np.ndarray,
        epoch: int,
        thp: bool = False,
        veto: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> Promotion:
        """Promote the candidates ``veto`` keeps; in THP mode, a huge page
        holding :attr:`THP_HOT_REPORTS` of them migrates whole (Sec. VII),
        "provided the profiled hot 4KB pages are part of huge pages"."""
        if veto is not None and candidates.size:
            candidates = veto(candidates)
        if candidates.size == 0:
            return Promotion()
        promoted, ping_pong = self.stats.promoted_pages, self.stats.ping_pong_events
        huge_pages = 0
        if thp:
            huge_ids = candidates // PAGES_PER_HUGE_PAGE
            unique, counts = distinct_counts(huge_ids)
            qualifying = unique[counts >= self.THP_HOT_REPORTS]
            if qualifying.size and veto is not None:
                # a huge page migrates whole, so the veto must approve its
                # *entire* span, not just the candidates inside it — an
                # unaligned frame straddling a tenant boundary would
                # otherwise smuggle a neighbour's pages past their quota
                spans = (
                    qualifying[:, None] * PAGES_PER_HUGE_PAGE + np.arange(PAGES_PER_HUGE_PAGE)
                ).ravel()
                spans = spans[spans < self.page_table.num_pages]
                vetoed = np.setdiff1d(spans, veto(spans))
                qualifying = qualifying[~np.isin(qualifying, vetoed // PAGES_PER_HUGE_PAGE)]
            if qualifying.size:
                huge_pages = self.promote_huge(qualifying, epoch)
            # the rest move as base pages
            candidates = candidates[~np.isin(huge_ids, qualifying)]
        base_pages = self.promote(candidates, epoch) if candidates.size else 0
        return Promotion(
            pages=self.stats.promoted_pages - promoted,
            base_pages=base_pages,
            huge_pages=huge_pages,
            ping_pong=self.stats.ping_pong_events - ping_pong,
        )

    def promote(self, pages: np.ndarray, epoch: int) -> int:
        """Promote ``pages`` (currently on slow nodes) to the fast node.

        Demotes cold pages first if the fast node is full.  Returns the
        number of pages actually promoted after quota and capacity.
        """
        with self.telemetry.span("migrate"):
            # a repeated request would book two reservations for one move
            pages = first_occurrence(np.asarray(pages, dtype=np.int64), self.page_table.num_pages)
            if pages.size == 0:
                return 0
            nodes = self.page_table.nodes_of(pages)
            # only mapped pages on slow nodes move up
            movable = pages[(nodes >= 0) & (nodes != FAST_NODE)]
            if movable.size == 0:
                return 0
            granted = self._charge_quota(movable.size, PAGE_SIZE)
            if granted == 0:
                return 0
            movable = movable[:granted]

            fast = self.topology.fast_node.tier
            headroom_target = int(fast.capacity_pages * self.config.fast_free_target)
            deficit = movable.size - (fast.free_pages - headroom_target)
            if deficit > 0:
                self._make_room(deficit)
                budget = max(fast.free_pages - headroom_target, 0)
                if movable.size > budget:
                    movable = movable[:budget]
            if movable.size == 0:
                return 0

            ping_pong = self._map_up(movable, epoch)
            moved = int(movable.size)
            self.stats.stall_ns += moved * self.config.page_copy_ns
            self._audit(
                "migration.promote",
                epoch=epoch,
                pages=moved,
                quota_bytes=granted * PAGE_SIZE,
                ping_pong=ping_pong,
            )
            return moved

    def promote_huge(self, huge_pages: np.ndarray, epoch: int) -> int:
        """Promote whole 2 MB huge pages (Table VI / THP mode).

        ``huge_pages`` are huge-page numbers; every base page inside each
        huge page moves together, as Linux's huge-page-compatible
        migration functions do.
        """
        with self.telemetry.span("migrate"):
            huge_pages = distinct_counts(np.asarray(huge_pages, dtype=np.int64))[0]
            if huge_pages.size == 0:
                return 0
            granted = self._charge_quota(huge_pages.size, PAGE_SIZE * PAGES_PER_HUGE_PAGE)
            if granted == 0:
                return 0
            moved = 0
            base_pages = 0
            # All base-page spans in one shot; each row is one huge page,
            # padded past the table end with -1 sentinels (dropped below).
            # Node membership is re-read per huge page inside the loop:
            # _make_room demotions can move fast pages into a *later*
            # span, so the membership snapshot cannot be hoisted.
            grant_list = huge_pages[:granted]
            spans_matrix = (
                grant_list[:, None] * PAGES_PER_HUGE_PAGE
                + np.arange(PAGES_PER_HUGE_PAGE, dtype=np.int64)
            )
            spans_matrix[spans_matrix >= self.page_table.num_pages] = -1
            # grants are sequential: each _make_room changes the free-slot
            # state the next row sees
            for row in range(grant_list.size):  # repro: noqa HOT001 — sequential grants
                span = spans_matrix[row]
                span = span[span >= 0]
                nodes = self.page_table.nodes_of(span)
                slow_members = span[(nodes >= 0) & (nodes != FAST_NODE)]
                if slow_members.size == 0:
                    continue
                fast = self.topology.fast_node.tier
                headroom = int(fast.capacity_pages * self.config.fast_free_target)
                deficit = slow_members.size - (fast.free_pages - headroom)
                if deficit > 0:
                    self._make_room(deficit)
                if fast.free_pages - headroom < slow_members.size:
                    break
                self._map_up(slow_members, epoch)
                moved += 1
                base_pages += int(slow_members.size)
                self.stats.stall_ns += self.config.huge_page_copy_ns
            self.stats.promoted_huge_pages += moved
            if moved:
                self._audit(
                    "migration.huge_promote",
                    epoch=epoch,
                    huge_pages=moved,
                    pages=base_pages,
                    quota_bytes=granted * PAGE_SIZE * PAGES_PER_HUGE_PAGE,
                )
            return moved

    def _map_up(self, pages: np.ndarray, epoch: int) -> int:
        """Map slow-resident, distinct ``pages`` onto the fast node.

        The one place a page becomes fast-resident: releases the source
        frames (exclusive mode) or records them as shadows (inclusive
        mode), reserves fast capacity, maps the pages, counts ping-pong
        and clears PG_demoted, touches the LRU lists and counts the
        promoted pages.  Quota, headroom, stall and audit stay with the
        caller.  Returns the ping-pong events.
        """
        src_nodes = self.page_table.nodes_of(pages)
        if self._inclusive:
            # the slow frame stays reserved as the shadow copy; the copy
            # itself (quota + stall) is still paid in full
            self._shadow_node[pages] = src_nodes
        else:
            # per-node release counts via one O(n) bincount; the node
            # space is tiny, so this beats np.unique's sort, and the loop
            # iterates the distinct NUMA nodes (a handful), not pages
            node_counts = np.bincount(src_nodes, minlength=len(self.topology.nodes))
            for node_id in np.nonzero(node_counts)[0]:  # repro: noqa HOT004 — per NUMA node
                self.topology[int(node_id)].tier.release(int(node_counts[node_id]))
        self.topology.fast_node.tier.reserve(pages.size)
        self.page_table.map_pages(pages, FAST_NODE)

        # ping-pong accounting: promoted pages that carry PG_demoted
        ping_pong = int(self.page_table.demoted_mask(pages).sum())
        self.stats.ping_pong_events += ping_pong
        self.page_table.clear_demoted(pages)

        # promoted pages enter the fast node's lists as recently used
        self.lru.touch(pages, epoch)
        self.stats.promoted_pages += int(pages.size)
        return ping_pong

    # ------------------------------------------------------------------
    # demotion
    # ------------------------------------------------------------------
    def demote(self, pages: np.ndarray, charge_quota: bool = True) -> int:
        """Demote fast-node ``pages`` to a slow node.

        Returns the number of pages moved.  Policy-driven demotions share
        the quota with promotions; reclaim-driven demotions (making room
        for a promotion, the kernel's kswapd path) bypass it by passing
        ``charge_quota=False``.
        """
        with self.telemetry.span("migrate"):
            pages = first_occurrence(np.asarray(pages, dtype=np.int64), self.page_table.num_pages)
            if pages.size == 0:
                return 0
            nodes = self.page_table.nodes_of(pages)
            movable = pages[nodes == FAST_NODE]
            if movable.size == 0:
                return 0
            dropped = 0
            if self._inclusive:
                shadows = self._shadow_node[movable]
                held = shadows >= 0
                if held.any():
                    dropped = self._drop_to_shadow(movable[held], shadows[held])
                    movable = movable[~held]
                if movable.size == 0:
                    return dropped
            if charge_quota:
                granted = self._charge_quota(movable.size, PAGE_SIZE)
                if granted == 0:
                    return dropped
                movable = movable[:granted]

            targets = [n for n in self.topology.slow_nodes if n.tier.free_pages > 0]
            moved = 0
            cursor = 0
            for node in targets:
                take = min(node.tier.free_pages, movable.size - cursor)
                if take <= 0:
                    continue
                chunk = movable[cursor : cursor + take]
                self.topology.fast_node.tier.release(take)
                node.tier.reserve(take)
                self.page_table.map_pages(chunk, node.node_id)
                self.page_table.mark_demoted(chunk)
                self.lru.forget(chunk)
                cursor += take
                moved += take
                if cursor >= movable.size:
                    break
            self.stats.demoted_pages += moved
            self.stats.stall_ns += moved * self.config.page_copy_ns
            if moved:
                self._audit(
                    "migration.demote",
                    pages=moved,
                    quota_bytes=moved * PAGE_SIZE if charge_quota else 0,
                    reclaim=not charge_quota,
                )
            return moved + dropped

    def keep_watermark(self, watermark: float, target: float) -> int:
        """Below a ``watermark`` fraction of free fast pages, demote the
        coldest (reclaim-style, no quota) until ``target`` is free."""
        fast = self.topology.fast_node.tier
        if fast.free_pages >= fast.capacity_pages * watermark:
            return 0
        want = int(fast.capacity_pages * target) - fast.free_pages
        return self.demote(self.lru.coldest(want), charge_quota=False)

    def _drop_to_shadow(self, pages: np.ndarray, shadows: np.ndarray) -> int:
        """Inclusive-mode demotion of still-shadowed pages: a free drop.

        The slow frame was never released at promotion and the data never
        changed (write-once KV traffic), so "demotion" is just remapping
        the page back to its shadow node — no copy stall, no quota, no
        slow-tier reservation (the frame is already held).
        """
        # one pass per distinct NUMA node (a handful), not per page
        node_counts = np.bincount(shadows, minlength=len(self.topology.nodes))
        for node_id in np.nonzero(node_counts)[0]:  # repro: noqa HOT004 — per NUMA node
            self.page_table.map_pages(pages[shadows == node_id], int(node_id))
        self.topology.fast_node.tier.release(pages.size)
        self.page_table.mark_demoted(pages)
        self.lru.forget(pages)
        self._shadow_node[pages] = -1
        dropped = int(pages.size)
        self.stats.demoted_pages += dropped
        self._audit("migration.shadow_drop", pages=dropped, quota_bytes=0)
        return dropped

    def coldest_victims(self, count: int, member_mask: np.ndarray | None = None) -> np.ndarray:
        """Reclaim candidates within ``member_mask`` (default: every
        fast-resident page), coldest first.

        LRU-2Q coldest pages, padded with untracked members: pages never
        touched since placement are not on the 2Q lists yet; in the
        kernel they sit on the inactive list from allocation, so they
        are legitimate (indeed prime) victims.  The lists hold only
        fast-resident pages (every move off the fast node forgets its
        pages), so the default needs no mask until it pads.  Shared by
        promotion headroom reclaim and the multi-tenant quota arbiter.
        """
        candidates = self.lru.coldest(count, member_mask)
        if candidates.size < count:
            # the LRU picks are members: clearing them in a copy of the
            # mask leaves the untracked members, ascending
            if member_mask is None:
                rest = self.page_table.node_of_page == FAST_NODE
            else:
                rest = member_mask.copy()
            rest[candidates] = False
            untracked = np.flatnonzero(rest)
            candidates = np.concatenate([candidates, untracked[: count - candidates.size]])
        return candidates

    def _make_room(self, num_pages: int) -> int:
        """Demote the coldest fast-node pages to free ``num_pages``."""
        candidates = self.coldest_victims(num_pages)
        if candidates.size == 0:
            return 0
        return self.demote(candidates, charge_quota=False)

    # ------------------------------------------------------------------
    def _audit(self, kind: str, **args) -> None:
        """Publish one migration into the metrics registry, and as a
        structured audit event when tracing is on."""
        tel = self.telemetry
        if not tel.enabled:
            return
        reg = tel.registry
        pages = args.get("pages", 0)
        reg.counter(f"{kind}.events").inc()
        reg.counter(f"{kind}.pages").inc(pages)
        reg.histogram(f"{kind}.batch_pages").observe(pages)
        tel.event(kind, **args)

    # ------------------------------------------------------------------
    def drain_stats(self) -> MigrationStats:
        """Hand back the per-window counters and start a fresh set.

        Stats must be drained exactly once per accounting window (the
        engine drains at the end of every epoch, after the per-epoch
        :meth:`grant_quota`).  A second drain in the same window means
        two consumers both think they own the reset — each would see
        half the counts — so it fails loudly; read-only observers read
        :attr:`stats` instead.
        """
        if self._window_drained:
            raise RuntimeError(
                "MigrationStats drained twice in one accounting window — "
                "the engine owns the per-epoch drain; read stats for "
                "read-only observation"
            )
        self._window_drained = True
        drained, self.stats = self.stats, MigrationStats()
        return drained
