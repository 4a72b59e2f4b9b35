"""QoS arbitration: how N tenants share one tiering policy.

Two deployment models from the multi-tenant tiering literature are
supported:

* **shared** — one policy/daemon instance serves the whole machine, as
  a single kernel daemon would.  Profiling state is pooled, so a noisy
  tenant can crowd the hot-page reports.
* **per-tenant** — one policy instance per tenant; each instance only
  observes the epochs its tenant executes, so profiling state is
  isolated at the cost of N replicas of it.

Orthogonally, the arbiter enforces a cgroup-like **fast-tier quota** per
tenant (``TenantSpec.fast_quota_fraction``): its quota filter rides in
the serving policy's epoch view, where the migration engine vetoes
promotions past a tenant's allowance, and any over-quota residency
(e.g. from first-touch fills) is reclaimed by demoting the tenant's
coldest fast-tier pages.  Enforcement demotions ride the normal
migration path, so their copy stalls are charged to the epoch like
kernel reclaim would be.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.memsim.numa import FAST_NODE
from repro.multitenant.namespace import AddressSpaceLayout
from repro.multitenant.spec import TenantSpec

#: arbitration modes
POLICY_SCOPES = ("shared", "per-tenant")


@dataclass(frozen=True)
class QosConfig:
    """How a co-located run shares its tiering policy among tenants.

    Fast-tier quotas are per tenant: they apply to exactly the tenants
    whose spec sets ``fast_quota_fraction``.
    """

    #: "shared" (one policy for the machine) or "per-tenant" (one each).
    policy_scope: str = "shared"

    def __post_init__(self) -> None:
        if self.policy_scope not in POLICY_SCOPES:
            raise ValueError(
                f"policy_scope must be one of {POLICY_SCOPES}, got {self.policy_scope!r}"
            )


class TenantPolicyArbiter:
    """Engine-facing policy object multiplexing N tenants' tiering.

    Implements the engine's ``Policy`` protocol: the co-location engine
    installs it as the simulation engine's policy, hands it that engine's
    machine through :meth:`bind`, and tells it which tenant produced each
    epoch via :meth:`set_current`.
    """

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        layout: AddressSpaceLayout,
        policy_factory: Callable[[], object],
        qos: QosConfig | None = None,
    ) -> None:
        self.specs = tuple(specs)
        self.layout = layout
        self.qos = qos or QosConfig()
        if self.qos.policy_scope == "shared":
            shared = policy_factory()
            self.policies = {spec.name: shared for spec in specs}
            base_name = shared.name
        else:
            self.policies = {spec.name: policy_factory() for spec in specs}
            base_name = next(iter(self.policies.values())).name
        self.name = f"{base_name}+{self.qos.policy_scope}"
        self.current: str = self.specs[0].name
        self.current_threshold = 0.0
        self._quota_pages: dict[str, int] = {}

    def bind(self, engine) -> None:
        """Size quotas from ``engine``'s fast tier; keep what enforces them."""
        self._page_table = engine.page_table
        self._migration = engine.migration
        fast_capacity = engine.topology.fast_node.tier.capacity_pages
        self._quota_pages = {
            spec.name: int(spec.fast_quota_fraction * fast_capacity)
            for spec in self.specs
            if spec.fast_quota_fraction is not None
        }

    # ------------------------------------------------------------------
    # Policy protocol
    # ------------------------------------------------------------------
    def on_epoch(self, view) -> float:
        policy = self.policies[self.current]
        if self._quota_pages:
            view = replace(view, promotion_filter=self.quota_filter)
        overhead_ns = float(policy.on_epoch(view))
        self.current_threshold = getattr(policy, "current_threshold", 0.0)
        if self._quota_pages:
            overhead_ns += self._reclaim_over_quota(policy)
        return overhead_ns

    # ------------------------------------------------------------------
    def set_current(self, tenant: str) -> None:
        """Tell the arbiter which tenant's batch the next epoch runs."""
        self.current = tenant

    # ------------------------------------------------------------------
    # fast-tier quota
    # ------------------------------------------------------------------
    def quota_filter(self, pages: np.ndarray) -> np.ndarray:
        """Veto promotion candidates exceeding their tenant's allowance.

        Passed as the serving policy's epoch-view ``promotion_filter``.
        For each quota'd tenant, candidates beyond the tenant's remaining
        fast-tier headroom are dropped (earliest reports win, matching
        the FIFO order hot-page reports arrive in).
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0 or not self._quota_pages:
            return pages
        node_of_page = self._page_table.node_of_page
        keep = np.ones(pages.size, dtype=bool)
        for tenant, quota in self._quota_pages.items():
            ns = self.layout.namespace(tenant)
            owned_idx = np.nonzero(ns.owns(pages))[0]
            if owned_idx.size == 0:
                continue
            resident = int((node_of_page[ns.base : ns.end] == FAST_NODE).sum())
            headroom = max(quota - resident, 0)
            # candidates already on the fast node consume no headroom
            movers = owned_idx[node_of_page[pages[owned_idx]] > FAST_NODE]
            if movers.size > headroom:
                keep[movers[headroom:]] = False
        return pages[keep]

    def _reclaim_over_quota(self, policy) -> float:
        """Demote each over-quota tenant's coldest fast-tier pages.

        Returns the host CPU overhead (ns) of the reclaim syscalls,
        priced at the serving policy's per-page migration cost — the
        same rate its own watermark demotions charge.
        """
        node_of_page = self._page_table.node_of_page
        demoted = 0
        for tenant, quota in self._quota_pages.items():
            ns = self.layout.namespace(tenant)
            window_on_fast = node_of_page[ns.base : ns.end] == FAST_NODE
            excess = int(window_on_fast.sum()) - quota
            if excess <= 0:
                continue
            member_mask = np.zeros(node_of_page.size, dtype=bool)
            member_mask[ns.base : ns.end] = window_on_fast
            victims = self._migration.coldest_victims(excess, member_mask)
            demoted += self._migration.demote(victims, charge_quota=False)
        return demoted * policy.syscall_ns_per_page
