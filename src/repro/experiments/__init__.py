"""Experiment harnesses: one module per paper table/figure.

A module is named for what it reproduces (``fig11``, ``table01``).  Each
exposes ``run_*`` functions returning structured results and a
``format_*`` helper that renders the same rows/series the paper
reports; the ``benchmarks/`` harnesses call both.
"""

from repro.experiments.backends import ProcessPoolBackend, ShardMergeError, merge_shards
from repro.experiments.colocation import (
    build_colocation,
    colocation_job,
    colocation_sweep_jobs,
    colocation_sweep_solo_jobs,
    format_colocation,
    make_tenant_specs,
    run_colocation,
    run_colocation_sweep,
    solo_baseline_job,
)
from repro.experiments.config import DEFAULT_CONFIG, SMOKE_CONFIG, ExperimentConfig
from repro.experiments.runner import (
    build_engine,
    build_policy,
    build_workload,
    default_policy_kwargs,
    geomean,
    run_one,
    workload_pages,
)
from repro.experiments.reporting import ReplicaStats, replica_stats
from repro.experiments.sweep import (
    JobSpec,
    SweepError,
    SweepExecutor,
    SweepSerializationError,
    job_key,
    resolve_executor,
    source_fingerprint,
)

__all__ = [
    "DEFAULT_CONFIG",
    "SMOKE_CONFIG",
    "ExperimentConfig",
    "JobSpec",
    "ProcessPoolBackend",
    "ReplicaStats",
    "ShardMergeError",
    "SweepError",
    "SweepExecutor",
    "SweepSerializationError",
    "build_colocation",
    "build_engine",
    "build_policy",
    "build_workload",
    "colocation_job",
    "colocation_sweep_jobs",
    "colocation_sweep_solo_jobs",
    "default_policy_kwargs",
    "format_colocation",
    "geomean",
    "job_key",
    "make_tenant_specs",
    "merge_shards",
    "replica_stats",
    "resolve_executor",
    "run_colocation",
    "run_colocation_sweep",
    "run_one",
    "solo_baseline_job",
    "source_fingerprint",
    "workload_pages",
]
