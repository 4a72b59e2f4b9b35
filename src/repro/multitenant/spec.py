"""Tenant descriptions for the co-location layer.

A :class:`TenantSpec` is everything the scheduler and the QoS arbiter
need to know about one workload sharing the machine: its RSS share of
the combined address space, its scheduling weight/priority, and its
fast-tier allowance.  The spec is deliberately decoupled from the
workload *object* so harnesses can describe a tenant mix declaratively
and instantiate trace generators later.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a co-located machine.

    Args:
        name: Unique tenant label; the tenant's window in the shared
            page-id space is looked up by it.
        workload: Registered workload name (see
            :func:`repro.workloads.make_workload`).
        num_pages: The tenant's RSS share, in base pages.
        weight: Share weight for the weighted-share scheduler; a tenant
            with weight 2 receives twice the epochs of a weight-1 tenant.
        priority: Strict priority level for the priority scheduler;
            higher runs first.
        fast_quota_fraction: QoS knob — the fraction of the *fast tier's*
            capacity this tenant may occupy.  ``None`` means unlimited
            (best-effort sharing); 0.0 pins the tenant entirely to CXL.
    """

    name: str
    workload: str
    num_pages: int
    weight: float = 1.0
    priority: int = 0
    fast_quota_fraction: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a non-empty name")
        if self.num_pages <= 0:
            raise ValueError(f"tenant {self.name!r}: num_pages must be positive")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if self.fast_quota_fraction is not None and not 0.0 <= self.fast_quota_fraction <= 1.0:
            raise ValueError(f"tenant {self.name!r}: fast_quota_fraction must lie in [0, 1]")
