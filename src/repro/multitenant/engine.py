"""Co-location engine: N workloads time-sharing one tiered machine.

The existing :class:`~repro.memsim.engine.SimulationEngine` stays the
substrate — one shared page table, NUMA topology, LLC filter, LRU-2Q
and migration engine, all sized to the *combined* resident set — and
the co-location layer drives it one tenant batch per epoch:

1. the scheduler picks a runnable tenant (round-robin, weighted-share
   or priority);
2. the tenant's workload emits a batch in its private address space,
   which its namespace translates into shared page ids;
3. the inner engine simulates the epoch against the shared machine —
   so tenants genuinely contend for fast-tier capacity and suffer each
   other's CXL bandwidth queueing, which persists across epochs via the
   tiers' utilization state;
4. the :class:`~repro.multitenant.arbitration.TenantPolicyArbiter`
   dispatches the epoch to the shared (or per-tenant) tiering policy
   and enforces fast-tier quotas;
5. the epoch's metrics row lands in both the machine-level report and
   the producing tenant's report, so per-tenant accounting partitions
   machine accounting exactly.

Time is *virtual-machine* time: each epoch's duration is the time the
machine spent on that tenant's batch, so a tenant's summed durations
are comparable against a solo run of the same trace (the slowdown
metric), independent of how long other tenants kept the machine busy.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.memsim.engine import EngineConfig, SimulationEngine, Workload
from repro.memsim.metrics import SimulationReport
from repro.memsim.tiers import TierSpec
from repro.multitenant.arbitration import QosConfig, TenantPolicyArbiter
from repro.multitenant.metrics import ColocationReport, TenantReport
from repro.multitenant.namespace import AddressSpaceLayout, TenantNamespace
from repro.multitenant.scheduler import TenantScheduler, make_scheduler
from repro.multitenant.spec import TenantSpec


class _SharedAddressSpace:
    """Workload stand-in describing the combined address space.

    The inner engine sizes its page table, LLC filter and capacity check
    from this; batches are injected through ``step()`` by the
    co-location loop, so ``next_batch`` only signals exhaustion.
    """

    def __init__(self, name: str, num_pages: int) -> None:
        self.name = name
        self.num_pages = num_pages

    def next_batch(self, rng):  # pragma: no cover - run() is never used
        return None


class TenantRuntime:
    """One tenant's live state inside a co-located run."""

    def __init__(self, spec: TenantSpec, namespace: TenantNamespace, workload: Workload) -> None:
        if workload.num_pages != spec.num_pages:
            raise ValueError(
                f"tenant {spec.name!r}: workload RSS {workload.num_pages} "
                f"pages != spec.num_pages {spec.num_pages}"
            )
        self.spec = spec
        self.namespace = namespace
        self.workload = workload
        self.report = SimulationReport(workload=workload.name, policy="")
        self.done = False


class ColocationEngine:
    """Runs N tenants against one shared :class:`SimulationEngine`."""

    def __init__(
        self,
        tenants: Sequence[tuple[TenantSpec, Workload]],
        topology_spec: list[tuple[TierSpec, int]],
        policy_factory: Callable[[], object],
        config: EngineConfig | None = None,
        scheduler: TenantScheduler | str = "round-robin",
        qos: QosConfig | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("co-location needs at least one tenant")
        specs = [spec for spec, _ in tenants]
        self.layout = AddressSpaceLayout(specs)
        self.qos = qos or QosConfig()
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, specs)
        self.scheduler = scheduler

        self.tenants: dict[str, TenantRuntime] = {}
        for spec, workload in tenants:
            self.tenants[spec.name] = TenantRuntime(
                spec, self.layout.namespace(spec.name), workload
            )

        self.arbiter = TenantPolicyArbiter(specs, self.layout, policy_factory, self.qos)
        shared_space = _SharedAddressSpace(
            name="+".join(spec.name for spec in specs),
            num_pages=self.layout.total_pages,
        )
        # the inner engine warms up over the combined address space: one
        # pseudo-random permutation interleaves every tenant's pages, so
        # each gets a fast-tier share proportional to its RSS, as if their
        # init phases ran concurrently
        self.inner = SimulationEngine(shared_space, topology_spec, self.arbiter, config)
        self.arbiter.bind(self.inner)
        for runtime in self.tenants.values():
            runtime.report.policy = self.arbiter.name
        # Per-tenant metric partitions: each tenant's epochs publish into
        # a child registry that forwards to the machine registry, so
        # tenant counter sums equal machine counters — the same
        # conservation invariant the epoch metrics obey.
        self._tenant_registries = (
            {name: self.inner.telemetry.registry.child() for name in self.tenants}
            if self.inner.telemetry.enabled
            else {}
        )

    # ------------------------------------------------------------------
    def run(self) -> ColocationReport:
        """Interleave tenant batches until every workload finishes."""
        while True:
            runnable = [t for t in self.tenants.values() if not t.done]
            if not runnable:
                break
            tenant = self.scheduler.pick(runnable)
            batch = tenant.workload.next_batch(self.inner.rng)
            if batch is None:
                tenant.done = True
                continue
            pages, is_write = batch
            global_pages = tenant.namespace.to_global(pages)
            self.arbiter.set_current(tenant.spec.name)
            if self._tenant_registries:
                with self.inner.telemetry.scoped_registry(
                    self._tenant_registries[tenant.spec.name]
                ):
                    metrics = self.inner.step(global_pages, is_write)
            else:
                metrics = self.inner.step(global_pages, is_write)
            tenant.report.append(metrics)
        report = ColocationReport(
            machine=self.inner.report,
            tenants={
                name: TenantReport(spec=rt.spec, report=rt.report)
                for name, rt in self.tenants.items()
            },
            scheduler=self.scheduler.name,
            policy_scope=self.qos.policy_scope,
        )
        if self.inner.telemetry.enabled:
            report.annotations["telemetry"] = {
                "machine": self.inner.telemetry.registry.snapshot(),
                "tenants": {name: reg.snapshot() for name, reg in self._tenant_registries.items()},
            }
        return report
