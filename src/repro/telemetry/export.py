"""Exporters: Chrome trace-event JSON and the JSONL run manifest.

*Chrome trace* — :func:`export_chrome_trace` serializes the global
trace buffer in the Trace Event Format (the ``traceEvents`` JSON array
Perfetto and ``chrome://tracing`` load): spans become complete (``X``)
events with microsecond timestamps, audit events become thread-scoped
instants (``i``), and per-lane metadata events name each engine's
track after its workload/policy.

*Run manifest* — one JSON line per executed sweep job, written next to
the job's cache entry: the job's content hash (which *is* its config
hash), seed, the repo's git revision, and the run's per-phase
wall-clock totals when telemetry was enabled.  ``MANIFEST.jsonl`` is
append-only and survives :func:`~repro.experiments.backends.merge_shards`
fan-in, so a merged cache still says where every entry came from.
"""

from __future__ import annotations

import json
import os
import subprocess
from functools import lru_cache
from pathlib import Path

from repro.telemetry.core import Telemetry, get_telemetry

#: manifest file name inside a sweep cache directory
MANIFEST_NAME = "MANIFEST.jsonl"


@lru_cache(maxsize=1)
def git_revision() -> str:
    """The repo's HEAD commit (short), or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(telemetry: Telemetry | None = None) -> list[dict]:
    """The trace buffer as a list of Trace Event Format dicts."""
    tel = telemetry if telemetry is not None else get_telemetry()
    if tel.trace is None:
        return []
    pid = os.getpid()
    events: list[dict] = []
    for track, label in sorted(tel.trace.track_labels.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": track,
                "args": {"name": label},
            }
        )
    for ph, name, ts_ns, dur_ns, track, args in tel.trace.events:
        event = {
            "name": name,
            "cat": "repro",
            "ph": ph,
            "ts": ts_ns / 1000.0,
            "pid": pid,
            "tid": track,
        }
        if ph == "X":
            event["dur"] = dur_ns / 1000.0
        else:
            event["s"] = "t"  # thread-scoped instant
        if args:
            event["args"] = args
        events.append(event)
    return events


def export_chrome_trace(
    path: str | os.PathLike | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Build (and optionally write) the Chrome/Perfetto trace document."""
    tel = telemetry if telemetry is not None else get_telemetry()
    document = {
        "traceEvents": chrome_trace_events(tel),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.telemetry",
            "mode": tel.mode_name,
            "dropped_events": tel.trace.dropped if tel.trace is not None else 0,
        },
    }
    if path is not None:
        Path(path).write_text(json.dumps(document) + "\n")
    return document


# ----------------------------------------------------------------------
# JSONL run manifest
# ----------------------------------------------------------------------
def manifest_record(
    key: str,
    label: str,
    seed: int | None,
    result=None,
    wall_s: float | None = None,
) -> dict:
    """One manifest line for an executed sweep job.

    ``key`` is :func:`~repro.experiments.sweep.job_key` — the stable
    content hash of the job's full configuration.  Per-phase totals are
    lifted from the result's telemetry annotations when the run
    collected them.  ``wall_s`` is the worker-measured real wall clock
    of the job (``runtime_s`` is *simulated* seconds).
    """
    record: dict = {
        "key": key,
        "label": label,
        "seed": seed,
        "git_rev": git_revision(),
        "phase_ns": None,
        "runtime_s": None,
        "wall_s": float(wall_s) if isinstance(wall_s, (int, float)) else None,
    }
    annotations = getattr(result, "annotations", None)
    if isinstance(annotations, dict):
        telemetry = annotations.get("telemetry")
        if isinstance(telemetry, dict):
            record["phase_ns"] = telemetry.get("phases") or None
    total_time_s = getattr(result, "total_time_s", None)
    if isinstance(total_time_s, (int, float)):
        record["runtime_s"] = float(total_time_s)
    return record


def append_manifest(cache_dir: str | os.PathLike, record: dict) -> Path:
    """Append one record to ``cache_dir/MANIFEST.jsonl`` (one JSON line)."""
    path = Path(cache_dir) / MANIFEST_NAME
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_manifest(cache_dir: str | os.PathLike) -> list[dict]:
    """Every record in a cache directory's manifest (empty if none)."""
    path = Path(cache_dir) / MANIFEST_NAME
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
