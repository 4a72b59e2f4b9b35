"""Per-tenant accounting for co-located runs.

The machine-level :class:`~repro.memsim.metrics.SimulationReport` stays
the ground truth; each tenant's report holds *the same epoch rows*,
restricted to the epochs that tenant's batches executed.  Per-tenant
totals therefore sum exactly to the machine totals — an invariant the
tests pin down — and every `SimulationReport` readout (timelines,
throughput, hit ratios) works unchanged per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.memsim.metrics import SimulationReport
from repro.multitenant.spec import TenantSpec


def jain_fairness(values) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly even; 1/n means one value dwarfs the rest.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("fairness index needs at least one value")
    if (arr < 0).any():
        raise ValueError("fairness index needs non-negative values")
    denom = arr.size * float((arr**2).sum())
    if denom == 0.0:
        return 1.0
    return float(arr.sum()) ** 2 / denom


@dataclass
class TenantReport:
    """One tenant's slice of a co-located run."""

    spec: TenantSpec
    report: SimulationReport
    #: runtime of the same workload alone on the same machine (seconds);
    #: filled in by the experiment harness when it runs solo baselines.
    solo_time_s: float | None = None

    @property
    def colocated_time_s(self) -> float:
        """Time spent executing this tenant's own batches."""
        return self.report.total_time_s

    @property
    def slowdown(self) -> float | None:
        """Contention slowdown vs. running alone (>= ~1 under load).

        Both runs execute the same number of the tenant's batches, so
        the ratio isolates *contention* (lost fast-tier share, CXL
        bandwidth queueing, shared policy attention) from time-sharing.
        """
        if self.solo_time_s is None or self.solo_time_s <= 0:
            return None
        return self.colocated_time_s / self.solo_time_s


@dataclass
class ColocationReport:
    """Everything measured during one co-located run."""

    machine: SimulationReport
    tenants: dict[str, TenantReport]
    scheduler: str = ""
    policy_scope: str = "shared"
    annotations: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def slowdowns(self) -> dict[str, float]:
        """Per-tenant slowdown vs. solo (only tenants with baselines)."""
        return {
            name: tr.slowdown
            for name, tr in self.tenants.items()
            if tr.slowdown is not None
        }

    def fairness(self) -> float:
        """Jain's index over per-tenant slowdowns.

        Slowdown-vs-solo is the QoS quantity an operator equalizes: a
        fairness of 1.0 means contention hurt every tenant equally.
        """
        slowdowns = self.slowdowns
        if len(slowdowns) != len(self.tenants):
            raise ValueError("fairness needs a solo baseline for every tenant")
        return jain_fairness(slowdowns.values())

    # ------------------------------------------------------------------
    def verify_conservation(self) -> None:
        """Assert per-tenant metrics partition the machine-level run.

        Every machine epoch belongs to exactly one tenant, so tenant
        totals must sum to machine totals for each conserved counter.
        """
        tenant_epochs = sum(len(tr.report.epochs) for tr in self.tenants.values())
        if tenant_epochs != len(self.machine.epochs):
            raise AssertionError(
                f"{tenant_epochs} tenant epochs vs "
                f"{len(self.machine.epochs)} machine epochs"
            )
        conserved = (
            "total_accesses",
            "total_llc_misses",
            "total_slow_traffic_bytes",
            "total_promoted_pages",
            "total_demoted_pages",
            "total_ping_pong_events",
        )
        for attr in conserved:
            machine_total = getattr(self.machine, attr)
            tenant_total = sum(getattr(tr.report, attr) for tr in self.tenants.values())
            if tenant_total != machine_total:
                raise AssertionError(
                    f"{attr}: tenants sum to {tenant_total}, machine has {machine_total}"
                )
        machine_ns = self.machine.total_time_ns
        tenant_ns = sum(tr.report.total_time_ns for tr in self.tenants.values())
        if abs(tenant_ns - machine_ns) > 1e-6 * max(machine_ns, 1.0):
            raise AssertionError(
                f"total_time_ns: tenants sum to {tenant_ns}, machine has {machine_ns}"
            )

    def summary(self) -> dict[str, object]:
        """Compact dictionary for experiment tables."""
        out: dict[str, object] = {
            "policy": self.machine.policy,
            "scheduler": self.scheduler,
            "tenants": len(self.tenants),
            "machine_time_s": self.machine.total_time_s,
        }
        slowdowns = self.slowdowns
        if slowdowns and len(slowdowns) == len(self.tenants):
            out["fairness"] = self.fairness()
            out["mean_slowdown"] = float(np.mean(list(slowdowns.values())))
            out["worst_slowdown"] = float(max(slowdowns.values()))
        return out
