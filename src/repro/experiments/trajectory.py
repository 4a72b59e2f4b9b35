"""Append-only performance trajectory and the CI regression gate.

``BENCH_sweep.json`` used to hold a single overwritten blob — one run's
numbers, no history, nothing to regress against.  This module turns it
into a *trajectory*: an append-only list of per-commit records

.. code-block:: json

    {"schema": 2,
     "records": [{"git_rev": "...", "unix_ts": 0, "serial_s": 1.8,
                  "parallel_s": 4.4, "speedup": 0.4,
                  "epochs_per_sec": 500.0, "cache_hit_rate": 1.0,
                  "phase_ns": {"account": 1, "profile": 2, ...}, ...}]}

written by ``benchmarks/test_sweep_speedup.py`` on every bench run.
The legacy single-blob format is migrated on first read (it becomes
record zero), so history starts from the oldest measurement we have.

The regression gate (``python -m repro.experiments.trajectory gate``)
compares the newest record against the 95 % confidence band of the
prior records, using Student-t statistics
(:func:`~repro.experiments.reporting.replica_stats`).  With fewer
than ``min_records`` priors the verdict is advisory (exit 0, warn):
one or two CI datapoints cannot distinguish noise from a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.reporting import replica_stats

__all__ = [
    "TRACKED_METRICS",
    "GateVerdict",
    "load_trajectory",
    "append_record",
    "latest_record",
    "evaluate_gate",
    "main",
]

#: current on-disk schema ({"schema": 2, "records": [...]})
TRAJECTORY_SCHEMA = 2

#: metric name -> direction ("lower" means smaller is better).  A
#: regression is the newest record landing *outside* the priors' 95 %
#: band on the bad side; the good side is an improvement, never gated.
TRACKED_METRICS = {
    "serial_s": "lower",
    "parallel_s": "lower",
    "parallel_warm_s": "lower",
    "speedup": "higher",
    "speedup_warm": "higher",
    "epochs_per_sec": "higher",
    "warm_replay_s": "lower",
    "cache_hit_rate": "higher",
}

#: metrics that only mean anything with >= 2 CPUs behind the pool.  On a
#: 1-CPU runner a "parallel regression" measures the machine, not the
#: code, so records tagged ``effective_parallel: false`` neither gate
#: these metrics nor feed their comparison history.
PARALLEL_METRICS = frozenset(
    {"parallel_s", "parallel_warm_s", "speedup", "speedup_warm"}
)


def load_trajectory(path: str | os.PathLike) -> list[dict]:
    """Every record in the trajectory file, oldest first.

    A missing file is an empty trajectory; a legacy single-blob
    ``BENCH_sweep.json`` (pre-schema, one dict of numbers) is treated
    as a one-record history.
    """
    path = Path(path)
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    if isinstance(payload, dict) and "records" in payload:
        records = payload["records"]
        if not isinstance(records, list):
            raise ValueError(f"{path}: 'records' must be a list")
        return records
    if isinstance(payload, dict):
        return [payload]  # legacy blob -> record zero
    raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")


def append_record(path: str | os.PathLike, record: dict) -> list[dict]:
    """Append one record, migrating a legacy blob in place.

    Returns the full record list after the append.  The write is
    atomic (tmp + rename), matching the sweep cache's discipline.
    """
    path = Path(path)
    records = load_trajectory(path)
    records.append(record)
    payload = {"schema": TRAJECTORY_SCHEMA, "records": records}
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)
    return records


def latest_record(path: str | os.PathLike) -> dict | None:
    records = load_trajectory(path)
    return records[-1] if records else None


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
@dataclass
class GateVerdict:
    """Outcome of gating one trajectory's newest record."""

    ok: bool
    advisory: bool
    lines: list[str]

    @property
    def exit_code(self) -> int:
        return 0 if self.ok or self.advisory else 1


def evaluate_gate(
    records: list[dict],
    min_records: int = 3,
    slack: float = 0.10,
) -> GateVerdict:
    """Gate the newest record against the priors' 95 % band.

    For each tracked metric present in the newest record *and* at least
    two priors, the priors reduce to mean ± ci95
    (:func:`~repro.experiments.reporting.replica_stats`); the newest
    value regresses when it lands beyond the band's bad edge by more
    than ``slack`` (fractional, relative to the prior mean) — the extra
    margin absorbs CI-runner jitter the t-interval cannot see.

    With fewer than ``min_records`` priors every verdict is advisory:
    the gate reports but exits 0, accumulating history instead of
    blocking on statistics it does not yet have.

    Parallel-speedup metrics (:data:`PARALLEL_METRICS`) are only gated
    when the newest record's ``effective_parallel`` flag is not false —
    a 1-CPU runner cannot regress a speedup, it can only fail to express
    one — and their comparison bands exclude priors measured without
    real parallelism.

    A record carrying ``"baseline_reset": true`` marks a deliberate
    performance-baseline change (a major optimization or a bench-config
    change): comparison history restarts there.  Records before the most
    recent reset are ignored — mixing the old baseline into the band
    would both mask regressions against the new one and flag the next
    ordinary run as a huge improvement/regression depending on direction.
    """
    lines: list[str] = []
    for i in range(len(records) - 1, -1, -1):
        if records[i].get("baseline_reset"):
            if i > 0:
                lines.append(
                    f"baseline reset at record {i}: ignoring {i} earlier record(s)"
                )
            records = records[i:]
            break
    if len(records) < 2:
        lines.append(
            f"trajectory has {len(records)} comparable record(s); nothing to compare"
        )
        return GateVerdict(ok=True, advisory=True, lines=lines)
    *priors, newest = records
    advisory = len(priors) < min_records
    if advisory:
        lines.append(
            f"only {len(priors)} prior record(s) (< {min_records}): "
            "verdicts are advisory, exit 0"
        )
    newest_parallel_ok = newest.get("effective_parallel") is not False
    if not newest_parallel_ok:
        lines.append(
            "effective_parallel=false (runner lacks the CPUs): "
            "parallel metrics are informational, not gated"
        )
    regressed = False
    for metric, direction in TRACKED_METRICS.items():
        if metric in PARALLEL_METRICS:
            if not newest_parallel_ok:
                continue
            # priors measured without real parallelism would poison the
            # band; legacy records (no flag) predate the tag and gated
            prior_pool = [r for r in priors if r.get("effective_parallel") is not False]
        else:
            prior_pool = priors
        value = newest.get(metric)
        prior_values = [
            r[metric] for r in prior_pool if isinstance(r.get(metric), (int, float))
        ]
        if not isinstance(value, (int, float)) or len(prior_values) < 2:
            continue
        stats = replica_stats(prior_values)
        margin = abs(stats.mean) * slack
        if direction == "lower":
            limit = stats.hi + margin
            bad = value > limit
            sign = "<="
        else:
            limit = stats.lo - margin
            bad = value < limit
            sign = ">="
        status = "REGRESSION" if bad else "ok"
        lines.append(
            f"{metric}: {value:.4g} vs prior {stats} "
            f"(need {sign} {limit:.4g}) -> {status}"
        )
        regressed |= bad
    if not regressed:
        lines.append("gate: PASS")
    elif advisory:
        lines.append("gate: REGRESSION (advisory — not enough history to enforce)")
    else:
        lines.append("gate: FAIL")
    return GateVerdict(ok=not regressed, advisory=advisory, lines=lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _cmd_show(args) -> int:
    records = load_trajectory(args.path)
    print(f"[trajectory] {args.path}: {len(records)} record(s)")
    for i, record in enumerate(records):
        metrics = "  ".join(
            f"{name}={record[name]:.4g}"
            for name in TRACKED_METRICS
            if isinstance(record.get(name), (int, float))
        )
        rev = record.get("git_rev", "?")
        reset = "  [baseline reset]" if record.get("baseline_reset") else ""
        print(f"  [{i}] rev={rev}  {metrics}{reset}")
    return 0


def _cmd_gate(args) -> int:
    records = load_trajectory(args.path)
    verdict = evaluate_gate(records, min_records=args.min_records, slack=args.slack)
    for line in verdict.lines:
        print(f"[trajectory] {line}")
    return verdict.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.trajectory", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show_p = sub.add_parser("show", help="list the trajectory's records")
    show_p.add_argument("path", nargs="?", default="BENCH_sweep.json")
    show_p.set_defaults(func=_cmd_show)

    gate_p = sub.add_parser(
        "gate", help="fail (exit 1) when the newest record regresses"
    )
    gate_p.add_argument("path", nargs="?", default="BENCH_sweep.json")
    gate_p.add_argument("--min-records", type=int, default=3)
    gate_p.add_argument("--slack", type=float, default=0.10)
    gate_p.set_defaults(func=_cmd_gate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
