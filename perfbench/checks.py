"""Correctness checks on job results: value digests and report invariants.

The digest hashes canonical *values* — every ``SimulationReport`` epoch
column and summary entry, every ``TenantReport`` — never pickle bytes,
whose memo layout differs between a serial run and a pool run that
computed identical values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from collections.abc import Mapping

import numpy as np

from repro.experiments.fig04 import DispersionResult
from repro.memsim.metrics import EPOCH_DTYPE, SimulationReport
from repro.multitenant.metrics import ColocationReport, TenantReport

#: simulated-outcome totals of a pass, summed over its distinct results
SIM_COUNTERS = (
    "epochs",
    "accesses",
    "llc_misses",
    "fast_hits",
    "promoted_pages",
    "demoted_pages",
    "ping_pong_events",
    "time_s",
)


# ----------------------------------------------------------------------
# value digest
# ----------------------------------------------------------------------
def value_digest(obj) -> str:
    """SHA-256 of ``obj``'s canonical values."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _tagged(h, tag: bytes, payload: bytes) -> None:
    h.update(tag + struct.pack("<Q", len(payload)) + payload)


def _feed(h, obj) -> None:
    if isinstance(obj, SimulationReport):
        _tagged(h, b"R", b"")
        _feed(h, obj.workload)
        _feed(h, obj.policy)
        for name in EPOCH_DTYPE.names:
            _feed(h, name)
            _feed(h, obj.column(name))
        # telemetry phase timings are host wall clock, not simulated values
        summary = {k: v for k, v in obj.summary().items() if not k.startswith("phase_")}
        _feed(h, summary)
    elif isinstance(obj, ColocationReport):
        _tagged(h, b"C", b"")
        _feed(h, obj.machine)
        _feed(h, obj.scheduler)
        _feed(h, obj.policy_scope)
        _feed(h, dict(obj.tenants))
    elif isinstance(obj, TenantReport):
        _tagged(h, b"T", b"")
        _feed(h, obj.spec)
        _feed(h, obj.report)
        _feed(h, obj.solo_time_s)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        _tagged(h, b"A", f"{arr.dtype.str}{arr.shape}".encode())
        _tagged(h, b"a", arr.tobytes())
    elif obj is None or isinstance(obj, (bool, np.bool_)):
        _tagged(h, b"B", repr(None if obj is None else bool(obj)).encode())
    elif isinstance(obj, (int, np.integer)):
        _tagged(h, b"I", str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        _tagged(h, b"F", float(obj).hex().encode())
    elif isinstance(obj, str):
        _tagged(h, b"S", obj.encode())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _tagged(h, b"D", type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, Mapping):
        _tagged(h, b"M", str(len(obj)).encode())
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        _tagged(h, b"L", str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"no canonical value encoding for {type(obj).__name__}")


def combined_digest(job_digests) -> int:
    """One number for a pass: the leading 48 bits of the hash of its
    per-job digests, in job order (exact as a JSON number)."""
    h = hashlib.sha256("\n".join(job_digests).encode())
    return int(h.hexdigest()[:12], 16)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
def _report_problems(report: SimulationReport, batch_size: int, epochs: int) -> list[str]:
    problems = []
    if len(report.epochs) != epochs:
        problems.append(f"{len(report.epochs)} epochs, expected {epochs}")
    if report.total_accesses != len(report.epochs) * batch_size:
        problems.append(
            f"{report.total_accesses} accesses != {len(report.epochs)} epochs x {batch_size}"
        )
    hits = report.column("fast_hits") + report.column("slow_hits")
    if (hits != report.column("llc_misses")).any():
        problems.append("fast hits + slow hits != LLC misses")
    return problems


def result_problems(result, expect) -> list[str]:
    """Broken invariants of one job result (empty when it is sound)."""
    if isinstance(result, SimulationReport):
        return _report_problems(result, expect.batch_size, expect.batches)
    if isinstance(result, ColocationReport):
        problems = []
        try:
            result.verify_conservation()
        except AssertionError as exc:
            problems.append(f"conservation: {exc}")
        problems += _report_problems(
            result.machine, expect.batch_size, expect.batches * len(result.tenants)
        )
        for name, tenant in result.tenants.items():
            problems += [
                f"tenant {name}: {p}"
                for p in _report_problems(tenant.report, expect.batch_size, expect.batches)
            ]
        return problems
    if isinstance(result, float):
        # a co-location solo baseline: the tenant's simulated runtime
        if not (math.isfinite(result) and result > 0):
            return [f"solo runtime {result!r} is not a positive number"]
        return []
    if isinstance(result, DispersionResult):
        problems = []
        expected = expect.batches * expect.batch_size
        if int(result.tlb_accesses.sum()) != expected:
            problems.append(f"{int(result.tlb_accesses.sum())} TLB accesses, expected {expected}")
        if result.tlb_accesses.shape != result.llc_misses.shape or (
            result.llc_misses > result.tlb_accesses
        ).any():
            problems.append("a page has more LLC misses than accesses")
        if not -1.0 <= result.pearson_r <= 1.0:
            problems.append(f"correlation {result.pearson_r!r} outside [-1, 1]")
        return problems
    return [f"unexpected result type {type(result).__name__}"]


def sim_counters(result, expect) -> dict:
    """The simulated-outcome counters one job result contributes."""
    out = dict.fromkeys(SIM_COUNTERS, 0)
    if isinstance(result, ColocationReport):
        result = result.machine
    if isinstance(result, SimulationReport):
        out.update(
            epochs=len(result.epochs),
            accesses=result.total_accesses,
            llc_misses=result.total_llc_misses,
            fast_hits=int(result.column("fast_hits").sum()),
            promoted_pages=result.total_promoted_pages,
            demoted_pages=result.total_demoted_pages,
            ping_pong_events=result.total_ping_pong_events,
            time_s=result.total_time_s,
        )
    elif isinstance(result, float):
        out.update(
            epochs=expect.batches,
            accesses=expect.batches * expect.batch_size,
            time_s=result,
        )
    elif isinstance(result, DispersionResult):
        out.update(
            epochs=expect.batches,
            accesses=int(result.tlb_accesses.sum()),
            llc_misses=int(result.llc_misses.sum()),
        )
    return out


def evaluate_pass(plan, results) -> dict:
    """Digest and check every job result of one pass.

    Identical jobs share one result object (the executor dedups them),
    so each distinct result is checked and counted once; ``sim`` totals
    and ``accesses`` cover distinct results, the work actually done.
    """
    seen: dict[int, tuple[str, list[str]]] = {}
    sim = dict.fromkeys(SIM_COUNTERS, 0)
    digests = []
    failed = []
    problems = []
    for index, (job, result) in enumerate(zip(plan.jobs, results)):
        if id(result) not in seen:
            expect = plan.expectation(job)
            seen[id(result)] = (value_digest(result), result_problems(result, expect))
            for name, value in sim_counters(result, expect).items():
                sim[name] += value
        digest, bad = seen[id(result)]
        digests.append(digest)
        if bad:
            failed.append(index)
            problems += [f"job {index}: {p}" for p in bad]
    return {
        "digests": digests,
        "digest": combined_digest(digests),
        "failed": failed,
        "problems": problems,
        "sim": sim,
    }


def mark_mismatches(record: dict, reference: list[str], reason: str) -> None:
    """Fail the jobs of a pass record whose digest differs from the
    reference pass's: one seed must simulate identically every time."""
    digests = record["digests"]
    if len(reference) != len(digests):
        bad = list(range(record.get("jobs", len(digests))))
    else:
        bad = [i for i, (a, b) in enumerate(zip(reference, digests)) if a != b]
    record["failed"] = sorted(set(record["failed"]) | set(bad))
    record["problems"] += [f"job {i}: {reason}" for i in bad]
