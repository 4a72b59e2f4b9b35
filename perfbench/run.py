#!/usr/bin/env python3
"""Benchmark the NeoMem simulator's host throughput on one workload.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each sample is a fresh interpreter
session (``perfbench/session.py``) that sets the workload up, runs a
cold pass and a warm pass of its job list, and checks every result.
``--trace 0`` repeats sessions for ``--seconds`` and prints the
end-to-end metrics as medians over them; ``--trace 1`` runs one traced
session plus untraced ones and prints the per-layer table.  The last
line of standard output is the JSON result; a full record, with the
environment fingerprint, is written under ``.perfbench/``.  Exits 2
when the checkout holds no simulator sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
#: set-up-only sessions per run, so setup_s is a median of several
SETUP_SAMPLES = 2
#: the calibration probe's host time on the reference host.  Every host
#: time reported is scaled by this over the probe time measured next to
#: it, i.e. expressed in seconds of the reference host.
CALIBRATION_REFERENCE_NS = 200e6
#: workloads whose traced run must attribute >= 90 % of host time to
#: reported layers (the executor-driven engine workloads)
ENGINE_WORKLOADS = ("paper-grid", "colocation", "kvcache-tiers")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_accesses_per_s": "1/s",
    "warm_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SessionError(RuntimeError):
    """A session process crashed, timed out or printed no result."""


def git_revision() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _session_env() -> dict:
    # REPRO_* knobs (workers, cache, backend, telemetry, ...) would change
    # what the program does; the checkout's sources shadow any install
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def prime() -> None:
    """Compile and cache the simulator's bytecode once, so no session's
    set-up time depends on whether it ran first in this checkout."""
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments.colocation, "
         "repro.experiments.fig04, repro.experiments.fig11, repro.experiments.fig12, "
         "repro.experiments.fig17, repro.experiments.kvcache"],
        cwd=ROOT, env=_session_env(), check=True, timeout=120,
    )


def run_session(args, timeout: float, *, traced: bool = False, setup_only: bool = False) -> dict:
    """One fresh session process; ``setup_s`` is measured from its spawn."""
    cmd = [
        sys.executable, "-m", "perfbench.session", "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        cmd += ["--traced", "--spans-out", str(spans)]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_session_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SessionError(f"session timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise SessionError(f"session exited {proc.returncode}: {err.strip()[-2000:]}")
    session = json.loads(out.strip().splitlines()[-1])
    session["setup_s"] = reference_s(
        (session["first_pass_start"] - start) * 1e9, session["setup_calibration_ns"]
    )
    session["session_s"] = time.monotonic() - start
    return session


def crashed_session(jobs: int, error: str) -> dict:
    """A session that printed no result fails every job it would have run."""
    record = {"jobs": jobs, "failed": list(range(jobs)), "problems": [error], "digests": []}
    return {"passes": [record, dict(record)]}


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def reference_s(host_ns: float, calibration_ns: float) -> float:
    """Host time in seconds of the reference host (see
    ``CALIBRATION_REFERENCE_NS``)."""
    return host_ns * CALIBRATION_REFERENCE_NS / calibration_ns / 1e9


def pass_s(record: dict) -> float:
    return reference_s(record["wall_ns"], record["calibration_ns"])


def throughput(record: dict) -> float:
    """Simulated accesses of the pass's distinct jobs per host second."""
    return record["sim"].get("accesses", 0) / pass_s(record)


def tally(sessions: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` jobs over every pass of every session."""
    passes = [p for s in sessions for p in s["passes"]]
    return sum(p["jobs"] for p in passes), sum(len(p["failed"]) for p in passes)


def end_to_end(sessions: list[dict], setup_samples: list[float]) -> dict[str, list[float]]:
    samples = {name: [] for name in END_TO_END_UNITS}
    samples["setup_s"] = list(setup_samples)
    for s in sessions:
        cold, warm = s["passes"]
        samples["setup_s"].append(s["setup_s"])
        samples["cold_accesses_per_s"].append(throughput(cold))
        samples["warm_accesses_per_s"].append(throughput(warm))
        samples["peak_rss_mb"].append(s["peak_rss_mb"])
    return samples


def executor_layers(session: dict) -> dict[str, float]:
    """Per-layer metrics read from the executor's own counters, summed
    over one untraced session's passes, plus the simulated outcome."""
    passes = session["passes"]
    workers = session["workers"]
    wall_ns = sum(p["wall_ns"] for p in passes)
    job_walls = [ns for p in passes for ns in p["job_walls_ns"]]
    dispatch: dict[str, int] = {}
    for p in passes:
        for phase, ns in p["dispatch_ns"].items():
            dispatch[phase] = dispatch.get(phase, 0) + ns
    out = {
        f"experiments.backends.{phase}_ms": dispatch.get(phase, 0) / 1e6
        for phase in ("trace_build", "job_pickle", "shm_attach", "worker_warmup")
    }
    if len(job_walls) > 1:
        out["experiments.sweep.job_ms_p50"] = statistics.median(job_walls) / 1e6
        out["experiments.sweep.job_ms_p90"] = statistics.quantiles(job_walls, n=10)[8] / 1e6
        out["experiments.backends.worker_busy_ratio"] = sum(job_walls) / (workers * wall_ns)
        # a pool's job walls overlap; its share of the pass is wall / workers
        out["experiments.sweep.executor_overhead_ms"] = (wall_ns - sum(job_walls) / workers) / 1e6
    sim = passes[0]["sim"]
    for name in ("epochs", "accesses", "llc_misses", "promoted_pages", "demoted_pages",
                 "ping_pong_events", "time_s"):
        out[f"sim.{name}"] = sim.get(name, 0)
    misses = sim.get("llc_misses", 0)
    out["sim.fast_hit_ratio"] = sim["fast_hits"] / misses if misses else 0.0
    out["sim.digest"] = passes[0]["digest"]
    return out


def in_reference_time(values: dict, units: dict, session: dict) -> dict:
    """Scale a session's host-time metrics to the reference host."""
    calibration_ns = statistics.mean(p["calibration_ns"] for p in session["passes"])
    factor = CALIBRATION_REFERENCE_NS / calibration_ns
    return {k: v * factor if units.get(k) in ("ms", "us", "ns") else v for k, v in values.items()}


def per_layer(traced: dict, plain: list[dict], units: dict) -> dict[str, float]:
    plain_s = [sum(pass_s(p) for p in s["passes"]) for s in plain]
    traced_s = sum(pass_s(p) for p in traced["passes"])
    values = dict.fromkeys(units, 0.0)
    values.update(in_reference_time(traced["layers"] or {}, units, traced))
    values.update(in_reference_time(executor_layers(plain[0]), units, plain[0]))
    values["trace.overhead_ratio"] = traced_s / statistics.median(plain_s)
    return values


def trace_problems(args, traced: dict) -> list[str]:
    """The traced run's checks on itself.  Coverage is checked at bench
    scale only: tiny jobs are mostly per-job construction, which no
    layer span claims."""
    layers = traced["layers"]
    if layers is None:
        return []
    problems = []
    # the pass spans sit just inside the passes' wall-clock windows; a
    # gap means spans were lost or the recorder's clock is off
    wall_ms = sum(p["wall_ns"] for p in traced["passes"]) / 1e6
    if not 0.99 * wall_ms <= layers["trace.pass_ms"] <= wall_ms:
        problems.append(
            f"pass spans cover {layers['trace.pass_ms']:.1f} ms of {wall_ms:.1f} ms wall time"
        )
    share = layers["trace.named_share"]
    if args.workload in ENGINE_WORKLOADS and args.scale == "bench" and share < 0.9:
        problems.append(f"reported layers cover {share:.1%} of traced host time (< 90 %)")
    return problems


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKERS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="tiny runs the same workloads small, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench.checks import mark_mismatches

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    started = time.monotonic()
    deadline = started + args.seconds
    prime()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    traced = run_session(args, remaining(), traced=True) if args.trace else None
    setup_samples = []
    if not args.trace:
        setup_samples = [
            run_session(args, remaining(), setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
    sessions: list[dict] = []
    errors: list[str] = []
    while True:
        try:
            sessions.append(run_session(args, remaining()))
        except SessionError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            if not sessions:
                return 1
            errors.append(str(exc))
        # start another session while at least half of one still fits:
        # a run overshoots --seconds by under half a session, never more
        typical = statistics.median(s["session_s"] for s in sessions)
        now = time.monotonic()
        if now + typical / 2 > deadline or now + typical > started + HARD_LIMIT_S - 15:
            break

    jobs = sessions[0]["passes"][0]["jobs"]
    everything = sessions + ([traced] if traced else [])
    reference = sessions[0]["passes"][0]["digests"]
    for session in everything[1:]:
        mark_mismatches(session["passes"][0], reference, "digest differs from another session")
    everything += [crashed_session(jobs, error) for error in errors]
    attempted, failed = tally(everything)
    problems = [msg for s in everything for p in s["passes"] for msg in p["problems"]]

    env = dict(sessions[0]["env"], git_revision=git_revision())
    print(f"perfbench {args.workload} seed={args.seed} sessions={len(sessions)} "
          f"env={json.dumps(env, sort_keys=True)}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} {'1':<6} "
          f"({failed} failed / {attempted} attempted jobs)")
    if traced is None:
        samples = end_to_end(sessions, setup_samples)
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:<44} {med:>14.6g} {unit:<6} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})")
    else:
        values = per_layer(traced, sessions, per_layer_units)
        problems += trace_problems(args, traced)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in per_layer_units.items()
        }
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for msg in problems[:20]:
        print(f"  FAIL {msg}")
    correct = not problems

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "sessions": everything}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
