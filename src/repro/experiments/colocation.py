"""Co-location experiment: QoS under multi-tenant contention.

The paper evaluates NeoMem one workload at a time; this harness opens
the datacenter regime its DeathStarBench results gesture at — N tenants
sharing one fast tier and one CXL channel.  For a tenant mix it runs

1. one *solo* baseline per tenant (same machine, tenant alone), and
2. one *co-located* run per scheduling discipline,

then reports per-tenant slowdown vs. solo and Jain's fairness index —
the two numbers an operator trades off when packing tenants.

The machine is sized from the combined RSS with the same fast:slow
ratio as the single-tenant experiments, so co-location stresses the
same fast-tier scarcity the paper's Fig. 11/12 configurations do.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import build_policy, build_workload, topology_for
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.multitenant import (
    SCHEDULER_NAMES,
    ColocationEngine,
    ColocationReport,
    QosConfig,
    TenantSpec,
)

#: service-mix rotation for auto-generated tenant sets: a pointer-chasing
#: cache, an analytics job, an OLTP store and the paper's microservice
#: benchmark — the canonical "latency-sensitive next to batch" mix
DEFAULT_MIX = ("gups", "pagerank", "silo", "deathstarbench")

#: sweep defaults (ISSUE: 2-8 tenants)
TENANT_COUNTS = (2, 4, 8)


def make_tenant_specs(
    num_tenants: int,
    config: ExperimentConfig = DEFAULT_CONFIG,
    mix=DEFAULT_MIX,
    weights=None,
    priorities=None,
    fast_quota_fractions=None,
) -> list[TenantSpec]:
    """A tenant mix cycling through ``mix``, splitting the machine RSS.

    The combined RSS stays at ``config.num_pages`` regardless of tenant
    count, so the machine (and its fast tier) is a fixed resource that
    N tenants carve up — contention grows with N, not the machine.
    """
    if num_tenants < 1:
        raise ValueError("need at least one tenant")
    per_tenant_pages = max(1024, config.num_pages // num_tenants)
    specs = []
    for i in range(num_tenants):
        specs.append(
            TenantSpec(
                name=f"t{i}-{mix[i % len(mix)]}",
                workload=mix[i % len(mix)],
                num_pages=per_tenant_pages,
                weight=weights[i] if weights else 1.0,
                priority=priorities[i] if priorities else 0,
                fast_quota_fraction=fast_quota_fractions[i] if fast_quota_fractions else None,
            )
        )
    return specs


def build_colocation(
    specs: list[TenantSpec],
    policy_name: str = "neomem",
    config: ExperimentConfig = DEFAULT_CONFIG,
    scheduler: str = "round-robin",
    qos: QosConfig | None = None,
) -> ColocationEngine:
    """Assemble a co-location engine for a tenant mix.

    Each tenant's trace generator is sized by its spec.  Policies are
    sized from the *combined* address space: whichever scope the QoS
    config selects, every instance indexes shared page ids, so its
    profiling arrays must span all tenants.
    """
    total_pages = sum(spec.num_pages for spec in specs)
    return ColocationEngine(
        [(spec, build_workload(spec.workload, config, num_pages=spec.num_pages)) for spec in specs],
        topology_for(total_pages, config),
        policy_factory=partial(build_policy, policy_name, total_pages, config),
        config=config.engine_config(),
        scheduler=scheduler,
        qos=qos,
    )


def colocation_job(
    specs: list[TenantSpec],
    policy_name: str = "neomem",
    config: ExperimentConfig = DEFAULT_CONFIG,
    scheduler: str = "round-robin",
    qos: QosConfig | None = None,
    tag: str = "",
) -> JobSpec:
    """One co-located run as a JobSpec (no solo baselines — those are
    separate, deduplicable jobs; see :func:`solo_baseline_job`).

    TenantSpecs and the QosConfig are frozen dataclasses, so the whole
    tenant mix hashes into the job's cache key.
    """
    return JobSpec(
        workload="colocation",
        policy=policy_name,
        config=config,
        runner="repro.experiments.colocation:_run_colocation_job",
        runner_kwargs={
            "specs": list(specs),
            "scheduler": scheduler,
            "qos": qos,
        },
        tag=tag,
    )


def solo_baseline_job(
    spec: TenantSpec,
    policy_name: str,
    config: ExperimentConfig,
    topology_pages: int,
    tag: str = "",
) -> JobSpec:
    """One tenant's solo baseline as its own JobSpec.

    The baseline is the tenant alone and *unconstrained* on the full-
    mix-sized machine: the fast-tier quota is part of what slowdown
    measures, and weight/priority only matter under contention, so all
    are normalized away.  That normalization is what makes the job's
    identity scheduler-independent — the executor runs one baseline per
    (tenant, machine) and every scheduler's slowdown row reuses it from
    dedup or the cache, instead of each co-located run recomputing its
    own.
    """
    solo_spec = replace(
        spec,
        name="solo",  # labels only; dropping it dedups same-workload tenants
        weight=1.0,
        priority=0,
        fast_quota_fraction=None,
    )
    return JobSpec(
        workload=spec.workload,
        policy=policy_name,
        config=config,
        runner="repro.experiments.colocation:_run_solo_job",
        runner_kwargs={"spec": solo_spec, "topology_pages": topology_pages},
        tag=tag,
    )


def _run_colocation_job(spec: JobSpec) -> ColocationReport:
    """Custom JobSpec runner: a ColocationEngine run, not a run_one."""
    kwargs = spec.runner_kwargs
    return _run_colocation(
        kwargs["specs"],
        spec.policy,
        spec.resolved_config(),
        kwargs["scheduler"],
        kwargs["qos"],
    )


def _run_solo_job(job: JobSpec) -> float:
    """Custom JobSpec runner: one tenant alone; returns its runtime (s)."""
    spec: TenantSpec = job.runner_kwargs["spec"]
    config = job.resolved_config()
    solo_engine = ColocationEngine(
        [(spec, build_workload(spec.workload, config, num_pages=spec.num_pages))],
        topology_for(job.runner_kwargs["topology_pages"], config),
        policy_factory=partial(build_policy, job.policy, spec.num_pages, config),
        config=config.engine_config(),
    )
    return solo_engine.run().machine.total_time_s


def run_colocation(
    specs: list[TenantSpec],
    policy_name: str = "neomem",
    config: ExperimentConfig = DEFAULT_CONFIG,
    scheduler: str = "round-robin",
    qos: QosConfig | None = None,
    *,
    executor: SweepExecutor | None = None,
) -> ColocationReport:
    """One co-located run, plus per-tenant solo baselines for slowdown.

    Solo baselines run each tenant alone on the *same machine* (topology
    sized for the full mix), so the slowdown ratio isolates contention:
    the solo tenant enjoys the whole fast tier and an idle CXL channel.
    Baselines are independent JobSpecs, so the one executor call fans
    them out (and dedups/caches them) alongside the co-located run.
    """
    topology_pages = sum(spec.num_pages for spec in specs)
    jobs = [colocation_job(specs, policy_name, config, scheduler, qos)]
    jobs += [solo_baseline_job(spec, policy_name, config, topology_pages) for spec in specs]
    report, *solo_times = resolve_executor(executor).run(jobs)
    for spec, solo_time in zip(specs, solo_times):
        report.tenants[spec.name].solo_time_s = solo_time
    return report


def _run_colocation(
    specs: list[TenantSpec],
    policy_name: str,
    config: ExperimentConfig,
    scheduler: str,
    qos: QosConfig | None,
) -> ColocationReport:
    report = build_colocation(specs, policy_name, config, scheduler, qos).run()
    report.verify_conservation()
    return report


def colocation_sweep_jobs(
    tenant_counts=TENANT_COUNTS,
    schedulers=SCHEDULER_NAMES,
    policy_name: str = "neomem",
    config: ExperimentConfig = DEFAULT_CONFIG,
    qos: QosConfig | None = None,
    mix=DEFAULT_MIX,
) -> list[JobSpec]:
    """The (tenant count x scheduler) sweep as JobSpecs, in sweep order."""
    jobs: list[JobSpec] = []
    for num_tenants in tenant_counts:
        specs = make_tenant_specs(num_tenants, config, mix=mix)
        # weighted/priority disciplines need non-uniform tenants to
        # exercise; give even tenants double weight and +1 priority
        shaped = [
            TenantSpec(
                name=spec.name,
                workload=spec.workload,
                num_pages=spec.num_pages,
                weight=2.0 if i % 2 == 0 else 1.0,
                priority=1 if i % 2 == 0 else 0,
            )
            for i, spec in enumerate(specs)
        ]
        for scheduler in schedulers:
            jobs.append(
                colocation_job(
                    shaped if scheduler != "round-robin" else specs,
                    policy_name,
                    config,
                    scheduler,
                    qos,
                    tag=f"{num_tenants}x{scheduler}",
                )
            )
    return jobs


def colocation_sweep_solo_jobs(
    tenant_counts=TENANT_COUNTS,
    policy_name: str = "neomem",
    config: ExperimentConfig = DEFAULT_CONFIG,
    mix=DEFAULT_MIX,
) -> tuple[list[JobSpec], list[tuple[int, str]]]:
    """The sweep's solo-baseline JobSpecs, with (tenant_count, name) ids.

    One baseline per tenant per tenant count (scheduler-independent);
    the ids map results back onto the co-located reports.  Exposed so
    drivers that enumerate the sweep's work — ``run_colocation_sweep``
    and the sharded ``sweep_cli`` — cover the same job set.
    """
    solo_jobs: list[JobSpec] = []
    solo_ids: list[tuple[int, str]] = []
    for num_tenants in tenant_counts:
        specs = make_tenant_specs(num_tenants, config, mix=mix)
        topology_pages = sum(spec.num_pages for spec in specs)
        for spec in specs:
            solo_jobs.append(solo_baseline_job(spec, policy_name, config, topology_pages))
            solo_ids.append((num_tenants, spec.name))
    return solo_jobs, solo_ids


def run_colocation_sweep(
    tenant_counts=TENANT_COUNTS,
    schedulers=SCHEDULER_NAMES,
    policy_name: str = "neomem",
    config: ExperimentConfig = DEFAULT_CONFIG,
    qos: QosConfig | None = None,
    mix=DEFAULT_MIX,
    *,
    executor: SweepExecutor | None = None,
) -> list[dict]:
    """Sweep tenant count x scheduler; one summary row per run.

    Rows carry fairness, mean/worst slowdown and the per-tenant
    slowdowns, which is what the acceptance experiment reports.

    Solo baselines are scheduler-independent JobSpecs, so one executor
    call runs each tenant's baseline exactly once per tenant count —
    the executor dedups it across the schedulers sharing the mix (and
    the cache reuses it across sweep invocations) instead of every
    co-located run recomputing its own.
    """
    coloc_jobs = colocation_sweep_jobs(tenant_counts, schedulers, policy_name, config, qos, mix)
    solo_jobs, solo_ids = colocation_sweep_solo_jobs(tenant_counts, policy_name, config, mix)
    results = resolve_executor(executor).run(coloc_jobs + solo_jobs)
    reports = results[: len(coloc_jobs)]
    solo_times = dict(zip(solo_ids, results[len(coloc_jobs) :]))
    rows: list[dict] = []
    flat = iter(reports)
    for num_tenants in tenant_counts:
        for _scheduler in schedulers:
            report = next(flat)
            for name, tenant_report in report.tenants.items():
                tenant_report.solo_time_s = solo_times[(num_tenants, name)]
            row = report.summary()
            row["slowdowns"] = report.slowdowns
            rows.append(row)
    return rows


def format_colocation(rows: list[dict]) -> str:
    """Render sweep rows as the table the harness prints."""
    from repro.experiments.reporting import format_table

    return format_table(
        ["tenants", "scheduler", "policy", "fairness", "mean sld", "worst sld"],
        [
            (
                row["tenants"],
                row["scheduler"],
                row["policy"],
                row.get("fairness", float("nan")),
                row.get("mean_slowdown", float("nan")),
                row.get("worst_slowdown", float("nan")),
            )
            for row in rows
        ],
    )
