"""One benchmark session in a fresh interpreter: set up, then timed passes.

``python -m perfbench.session --workload <name> --seed <n>`` run from
the checkout root, with the checkout's ``src`` on ``PYTHONPATH``.  The
session builds the workload's job list and executor, runs a cold pass
and one warm pass of the same list, checks and digests every result,
and prints one JSON line.  ``--traced`` wraps the layers (see
:mod:`perfbench.tracing`) for the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import resource
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
#: rounds of the calibration probe (about 0.2 s on a quiet 2-CPU host)
CALIBRATION_ROUNDS = 36


def calibrate() -> int:
    """Host ns for a fixed probe of interpreter and numpy work.

    The simulator shares its host with other tenants whose load swings
    its speed by up to 2x over minutes.  The probe runs next to every
    pass; dividing a pass's time by the probe's (see ``run.py``) cancels
    that drift.  It uses no simulator code, so a change to the simulator
    cannot move it.
    """
    import numpy as np

    pages = np.random.default_rng(12345).integers(0, 1 << 14, size=1 << 15)
    table: dict[int, int] = {}
    start = time.perf_counter_ns()
    for _ in range(CALIBRATION_ROUNDS):
        counts = np.bincount(pages, minlength=1 << 14)
        order = np.argsort(pages, kind="stable")
        hot = pages[order][counts[pages[order]] > 2]
        for page in hot[:12000].tolist():
            table[page & 4095] = table.get(page & 4095, 0) + 1
    return time.perf_counter_ns() - start


def environment() -> dict:
    """The fingerprint that must match before two results are compared."""
    import numpy

    from repro.experiments.sweep import source_fingerprint

    return {
        "cpu_count": multiprocessing.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "start_method": multiprocessing.get_start_method(),
        "source_fingerprint": source_fingerprint(),
    }


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS, plus ``workers`` x the largest reaped
    child's for a pool (call after the pool has shut down)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def run_session(
    workload: str,
    seed: int,
    *,
    scale: str = "bench",
    traced: bool = False,
    spans_out: str | None = None,
    setup_only: bool = False,
) -> dict:
    """Set up ``workload`` and run a cold pass and a warm pass (none
    with ``setup_only``, which times set-up alone).

    A pass whose executor raises fails every job in it.  Jobs also fail
    on a broken report invariant, or when a warm pass digests a job
    differently from the cold pass.
    """
    from perfbench.checks import evaluate_pass, mark_mismatches
    from perfbench.tracing import PASS_SPAN, SpanRecorder, layer_metrics
    from perfbench.workloads import make_plan

    plan = make_plan(workload, seed, scale)
    first_pass_start = time.monotonic()
    calibration_ns = calibrate()
    if setup_only:
        plan.close()
        return {"first_pass_start": first_pass_start, "setup_calibration_ns": calibration_ns}
    recorder = None
    if traced and plan.workers == 1:
        recorder = SpanRecorder()
        recorder.install()
    passes = []
    setup_calibration_ns = calibration_ns
    try:
        for _ in ("cold", "warm"):
            dispatch_before = plan.dispatch_ns()
            error = None
            start = time.perf_counter_ns()
            try:
                if recorder is not None:
                    with recorder.span(PASS_SPAN):
                        results = plan.run_pass()
                else:
                    results = plan.run_pass()
            except Exception as exc:  # the pass fails; the session reports it
                results, error = None, f"{type(exc).__name__}: {exc}"
            wall_ns = time.perf_counter_ns() - start
            before, calibration_ns = calibration_ns, calibrate()
            dispatch = {
                phase: ns - dispatch_before.get(phase, 0)
                for phase, ns in plan.dispatch_ns().items()
            }
            if results is None:
                record = {
                    "digests": [],
                    "digest": 0,
                    "failed": list(range(len(plan.jobs))),
                    "problems": [error],
                    "sim": {},
                }
            else:
                record = evaluate_pass(plan, results)
                del results
                if passes and passes[0]["digests"]:
                    mark_mismatches(
                        record, passes[0]["digests"], "digest differs from the cold pass"
                    )
            record.update(
                jobs=len(plan.jobs),
                wall_ns=wall_ns,
                calibration_ns=(before + calibration_ns) / 2,
                job_walls_ns=plan.job_walls_ns() if error is None else [],
                dispatch_ns=dispatch,
            )
            passes.append(record)
    finally:
        if recorder is not None:
            recorder.uninstall()
        plan.close()

    out = {
        "workload": workload,
        "seed": seed,
        "workers": plan.workers,
        "first_pass_start": first_pass_start,
        "setup_calibration_ns": setup_calibration_ns,
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(plan.workers),
        "env": environment(),
        "layers": None,
    }
    if recorder is not None:
        out["layers"] = layer_metrics(recorder.totals(), recorder.work)
        if spans_out:
            recorder.save(spans_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro

    expected = CHECKOUT / "src"
    if not Path(repro.__file__).resolve().is_relative_to(expected):
        print(f"repro imported from {repro.__file__}, not from {expected}", file=sys.stderr)
        return 3
    out = run_session(
        args.workload,
        args.seed,
        scale=args.scale,
        traced=args.traced,
        spans_out=args.spans_out,
        setup_only=args.setup_only,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
