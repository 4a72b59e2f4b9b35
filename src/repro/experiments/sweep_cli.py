"""Command-line sweep driver for sharded (CI / multi-host) execution.

Each host runs its deterministic slice of a named job set against a
private cache directory, the caches travel (CI artifacts, rsync), and
a fan-in host merges them and aggregates — the same executor pipeline
the Python harnesses use, driven from a shell.  ``run`` takes its shard
from the environment; ``digest`` and ``trace`` always run the whole
set, serially, whatever shard the host's environment names:

.. code-block:: bash

    # host 0 of 2 (and symmetrically host 1)
    REPRO_SWEEP_SHARD=0 REPRO_SWEEP_NUM_SHARDS=2 REPRO_SWEEP_WORKERS=2 \\
        python -m repro.experiments.sweep_cli run fig12 --cache-dir .shard0

    # fan-in: one cache, then a fully-cached serial pass
    python -m repro.experiments.sweep_cli merge .merged .shard0 .shard1
    python -m repro.experiments.sweep_cli digest fig12 \\
        --cache-dir .merged --require-cached --out merged.digest

    # ground truth: a from-scratch serial run of the same set
    python -m repro.experiments.sweep_cli digest fig12 --out serial.digest
    cmp merged.digest serial.digest   # bit-identical, or the build fails

``digest`` hashes each job result's canonical values independently
(sha256 over per-job sha256s of the result's sorted-key JSON), so the
digest is a content identity for the whole result set: two runs agree
iff every job's result holds the same values, whichever process built
it.  Pickle bytes are not values: a co-location report pickles
differently in a pool worker than in the parent process.  Wall-clock
phase times are not values either, and stay out of the hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.experiments.backends import merge_shards
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import JobSpec, SweepExecutor, _canonical, job_key
from repro.telemetry import (
    configure,
    deterministic_annotation,
    export_chrome_trace,
    get_telemetry,
)

__all__ = ["JOB_SETS", "build_jobs", "results_digest", "main"]

#: bench-scale machine (mirrors benchmarks/conftest.BENCH_CONFIG): big
#: enough for the paper's dynamics, small enough for CI wall clock
CI_NUM_PAGES = 12288
CI_BATCHES = 36
CI_BATCH_SIZE = 12288


def _fig12_jobs(config: ExperimentConfig, args) -> list[JobSpec]:
    from repro.experiments import fig12

    workloads = args.workloads.split(",") if args.workloads else fig12.BENCHMARKS
    ratios = _parse_ratios(args.ratios) if args.ratios else fig12.RATIOS
    return fig12.fig12_jobs(config, workloads=workloads, ratios=ratios)


def _fig11_jobs(config: ExperimentConfig, args) -> list[JobSpec]:
    from repro.experiments import fig11

    workloads = args.workloads.split(",") if args.workloads else fig11.BENCHMARKS
    return fig11.fig11_jobs(config, workloads=workloads)


def _colocation_jobs(config: ExperimentConfig, args) -> list[JobSpec]:
    from repro.experiments import colocation

    solo_jobs, _ = colocation.colocation_sweep_solo_jobs(config=config)
    return colocation.colocation_sweep_jobs(config=config) + solo_jobs


def _kvcache_jobs(config: ExperimentConfig, args) -> list[JobSpec]:
    # a CI-sized slice of experiments/kvcache.py's grid: both tier
    # modes, the short/long context extremes, static baseline + one
    # reactive profiler + the oracle — 12 jobs
    from repro.experiments import kvcache

    return kvcache.kvcache_jobs(
        config,
        contexts=(0.125, 0.5),
        strategies=("first-touch", "tpp", "lookahead"),
    )


#: named job sets runnable from the shell; each maps (config, args) to
#: the JobSpec list the matching Python harness would enumerate, and
#: declares which subset flags it honours (the rest are rejected — a
#: silently ignored --workloads would burn shard wall-clock on jobs
#: the operator tried to exclude)
JOB_SETS = {
    "fig11": (_fig11_jobs, frozenset({"workloads"})),
    "fig12": (_fig12_jobs, frozenset({"workloads", "ratios"})),
    "colocation": (_colocation_jobs, frozenset()),
    "kvcache": (_kvcache_jobs, frozenset()),
}


def _parse_ratios(raw: str) -> tuple[tuple[int, int], ...]:
    ratios = []
    for item in raw.split(","):
        fast, sep, slow = item.partition(":")
        if not sep or not fast.isdigit() or not slow.isdigit():
            raise SystemExit(
                f"error: invalid ratio {item!r} in --ratios {raw!r} "
                '(expected comma-separated fast:slow pairs, e.g. "1:2,1:4")'
            )
        ratios.append((int(fast), int(slow)))
    return tuple(ratios)


def build_jobs(args) -> list[JobSpec]:
    """The job set named on the command line, at the flagged scale."""
    build, supported = JOB_SETS[args.job_set]
    for flag in ("workloads", "ratios"):
        if getattr(args, flag) and flag not in supported:
            raise SystemExit(
                f"error: --{flag} is not supported by job set "
                f"{args.job_set!r} (it would be silently ignored)"
            )
    config = ExperimentConfig(
        num_pages=args.num_pages,
        batches=args.batches,
        batch_size=args.batch_size,
    )
    return build(config, args)


def _deterministic(value):
    """Canonical ``value`` with every report's telemetry annotation
    stripped of its wall-clock entries (see ``deterministic_annotation``)."""
    if isinstance(value, list):
        return [_deterministic(item) for item in value]
    if not isinstance(value, dict):
        return value
    out = {key: _deterministic(item) for key, item in value.items()}
    annotations = out.get("annotations")
    if isinstance(annotations, dict) and isinstance(annotations.get("telemetry"), dict):
        telemetry = deterministic_annotation(annotations["telemetry"])
        out["annotations"] = {**annotations, "telemetry": telemetry}
    return out


def results_digest(results) -> str:
    """Order-sensitive content hash over per-job canonical values.

    Wall-clock telemetry (phase times) is left out, so two runs of one
    job set digest alike with telemetry on as well as off.
    """
    digest = hashlib.sha256()
    for result in results:
        blob = json.dumps(_deterministic(_canonical(result)), sort_keys=True).encode()
        digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest()


def _add_jobset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("job_set", choices=sorted(JOB_SETS))
    parser.add_argument("--num-pages", type=int, default=CI_NUM_PAGES)
    parser.add_argument("--batches", type=int, default=CI_BATCHES)
    parser.add_argument("--batch-size", type=int, default=CI_BATCH_SIZE)
    parser.add_argument("--workloads", default="", help="comma-separated workload subset")
    parser.add_argument(
        "--ratios", default="", help='comma-separated fast:slow ratios, e.g. "1:2,1:4"'
    )


def _cmd_run(args) -> int:
    executor = SweepExecutor(cache_dir=args.cache_dir)
    if executor.shard is not None and executor.cache_dir is None:
        print(
            "error: a sharded run without --cache-dir (or REPRO_SWEEP_CACHE) "
            "discards its results — the cache slice is the shard's output",
            file=sys.stderr,
        )
        return 2
    jobs = build_jobs(args)
    executor.run(jobs, allow_partial=True)
    stats = executor.stats
    where = executor.backend.describe()
    if executor.shard is not None:
        where += " shard {}/{}".format(*executor.shard)
    if executor.cache_dir is not None:
        # manifest keeps a zero-job shard's artifact non-empty and
        # records what produced this slice
        manifest = {
            "job_set": args.job_set,
            "backend": where,
            "jobs": len(jobs),
            "executed": stats.executed,
            "shard_skipped": stats.shard_skipped,
        }
        (executor.cache_dir / "SHARD.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(
        f"[sweep-cli] {args.job_set}: {len(jobs)} jobs via "
        f"{where} -> executed={stats.executed} "
        f"cache_hits={stats.cache_hits} deduplicated={stats.deduplicated} "
        f"shard_skipped={stats.shard_skipped}"
    )
    tel = get_telemetry()
    if tel.tracing:
        export_chrome_trace(args.trace_out, tel)
        print(f"[sweep-cli] wrote Chrome trace to {args.trace_out}")
    return 0


def _cmd_trace(args) -> int:
    """Run a job set in trace mode and export a Perfetto-loadable trace.

    Always serial and cache-bypassing: a trace is a profile of *this*
    execution, so cached results (which skip the simulation entirely)
    would hollow it out, and pool workers would trace into buffers the
    parent never sees.
    """
    tel = configure("trace")
    executor = SweepExecutor(cache_dir="", backend="serial")
    jobs = build_jobs(args)
    if args.limit is not None:
        jobs = jobs[: args.limit]
    executor.run(jobs)
    trace = export_chrome_trace(args.out, tel)
    print(
        f"[sweep-cli] {args.job_set}: traced {len(jobs)} jobs -> {args.out} "
        f"({len(trace['traceEvents'])} events, "
        f"{trace['otherData']['dropped_events']} dropped)"
    )
    return 0


def _cmd_merge(args) -> int:
    stats = merge_shards(args.sources, args.dest)
    print(
        f"[sweep-cli] merged {stats.shards} shard dirs into {args.dest}: "
        f"{stats.merged} entries, {stats.duplicates} duplicates"
    )
    return 0


def _cmd_digest(args) -> int:
    # digesting is always a serial, unsharded pass: with a merged cache
    # it only loads entries; without one it is the ground-truth run
    executor = SweepExecutor(cache_dir=args.cache_dir or "", backend="serial")
    jobs = build_jobs(args)
    if args.require_cached:
        # precheck coverage: failing fast costs milliseconds, whereas
        # run() would execute every uncovered job to completion — and
        # write the results into the cache being diagnosed
        unique = {job_key(spec): spec for spec in jobs}
        missing = sum(1 for spec in unique.values() if not executor.is_cached(spec))
        if missing:
            print(
                f"error: --require-cached, but {missing} of {len(unique)} "
                "cache entries are missing — the merged cache does not cover "
                "the job set",
                file=sys.stderr,
            )
            return 2
    results = executor.run(jobs)
    stats = executor.stats
    digest = results_digest(results)
    print(
        f"[sweep-cli] {args.job_set}: digest {digest} "
        f"(executed={stats.executed} cache_hits={stats.cache_hits})"
    )
    if args.out:
        Path(args.out).write_text(digest + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.sweep_cli", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a job set (honours shard env)")
    _add_jobset_flags(run_p)
    run_p.add_argument("--cache-dir", default=None)
    run_p.add_argument(
        "--trace-out",
        default="sweep_trace.json",
        help="Chrome-trace output path (written when REPRO_TELEMETRY=trace)",
    )
    run_p.set_defaults(func=_cmd_run)

    trace_p = sub.add_parser(
        "trace",
        help="run a job set with tracing on; export a Perfetto trace",
    )
    _add_jobset_flags(trace_p)
    trace_p.add_argument("--out", default="sweep_trace.json")
    trace_p.add_argument("--limit", type=int, default=None, help="trace only the first N jobs")
    trace_p.set_defaults(func=_cmd_trace)

    merge_p = sub.add_parser("merge", help="fan per-shard caches into one")
    merge_p.add_argument("dest")
    merge_p.add_argument("sources", nargs="+")
    merge_p.set_defaults(func=_cmd_merge)

    digest_p = sub.add_parser(
        "digest", help="serial pass over a job set; print/write its content hash"
    )
    _add_jobset_flags(digest_p)
    digest_p.add_argument("--cache-dir", default=None)
    digest_p.add_argument("--require-cached", action="store_true")
    digest_p.add_argument("--out", default=None)
    digest_p.set_defaults(func=_cmd_digest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
