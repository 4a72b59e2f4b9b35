"""Table VI: Transparent Huge Pages vs base pages on Page-Rank.

Four configurations: NeoMem and TPP, each with THP enabled (2 MB
migration of huge pages whose profiled 4 KB members are hot) and with
base pages only.  The paper's shape: NeoMem-THP fastest; NeoMem
promotes GBs of huge pages; TPP migrates almost no huge pages (its low
time-resolution rarely sees two co-located fault pairs) and gains
little or regresses from THP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.fig14 import PAGERANK_KWARGS, iteration_seconds
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor
from repro.memsim.address import PAGE_SIZE, PAGES_PER_HUGE_PAGE
from repro.memsim.metrics import SimulationReport


@dataclass
class ThpRow:
    """One Table VI column."""

    system: str
    generate_s: float
    build_s: float
    avg_trail_s: float
    total_s: float
    promoted_base_mb: float
    promoted_huge_mb: float


def _phase_times(report: SimulationReport, workload) -> tuple[float, float, float]:
    durations = report.series("duration_ns")
    half = workload.build_batches // 2
    generate = sum(durations[:half]) * 1e-9
    build = sum(durations[half : workload.build_batches]) * 1e-9
    trail_times = iteration_seconds(report, workload)
    avg_trail = sum(trail_times) / len(trail_times) if trail_times else 0.0
    return generate, build, avg_trail


def _extract_phase_times(report, engine) -> None:
    """Worker-side extractor: phase times need the live workload object."""
    report.annotations["phase_times"] = _phase_times(report, engine.workload)


def _thp_job(system: str, thp: bool, config: ExperimentConfig) -> JobSpec:
    policy_kwargs: dict = {}
    if system == "neomem":
        policy_kwargs["neomem_config"] = config.neomem_config(thp=thp)
        policy_name = "neomem"
    else:
        policy_kwargs["thp"] = thp
        policy_name = "tpp"
    return JobSpec(
        "pagerank",
        policy_name,
        config,
        workload_overrides={"total_batches": None, **PAGERANK_KWARGS},
        policy_kwargs=policy_kwargs,
        extractor="repro.experiments.table06:_extract_phase_times",
        tag=f"{system}-{'thp' if thp else 'base'}",
    )


def table06_jobs(config: ExperimentConfig = DEFAULT_CONFIG) -> list[JobSpec]:
    """The four Table VI configurations, in table order."""
    return [
        _thp_job("neomem", True, config),
        _thp_job("tpp", True, config),
        _thp_job("neomem", False, config),
        _thp_job("tpp", False, config),
    ]


def _row_from_report(label: str, report: SimulationReport) -> ThpRow:
    generate, build, avg_trail = report.annotations["phase_times"]
    huge_pages = report.total_promoted_huge_pages
    huge_mb = huge_pages * PAGES_PER_HUGE_PAGE * PAGE_SIZE / 2**20
    base_pages = report.total_promoted_pages - huge_pages * PAGES_PER_HUGE_PAGE
    base_mb = max(base_pages, 0) * PAGE_SIZE / 2**20
    return ThpRow(
        system=label,
        generate_s=generate,
        build_s=build,
        avg_trail_s=avg_trail,
        total_s=report.total_time_s,
        promoted_base_mb=base_mb,
        promoted_huge_mb=huge_mb,
    )


def run_table06(
    config: ExperimentConfig = DEFAULT_CONFIG,
    *,
    executor: SweepExecutor | None = None,
) -> list[ThpRow]:
    """The four Table VI configurations."""
    jobs = table06_jobs(config)
    reports = resolve_executor(executor).run(jobs)
    return [
        _row_from_report(job.tag, report) for job, report in zip(jobs, reports)
    ]
