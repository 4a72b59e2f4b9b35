"""Simulation counters and reports.

The paper's evaluation reads out three families of numbers: end-to-end
runtime (Figs. 11, 12, 14-a, 15, 17, Table VI), slow-tier traffic and
promotion/demotion counts (Fig. 13), and timeline series — threshold,
bandwidth utilization, histogram strips, instantaneous GUPS (Figs. 14,
16).  :class:`EpochMetrics` captures one epoch; :class:`SimulationReport`
aggregates a run and exposes those readouts.
"""

# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import get_type_hints

import numpy as np


@dataclass
class EpochMetrics:
    """Everything measured during one simulation epoch."""

    epoch: int = 0
    sim_time_ns: float = 0.0  # wall-clock start of the epoch
    duration_ns: float = 0.0  # how long the epoch took
    accesses: int = 0
    llc_misses: int = 0
    fast_hits: int = 0  # LLC misses served by the fast tier
    slow_hits: int = 0  # LLC misses served by slow tiers
    slow_read_bytes: int = 0
    slow_write_bytes: int = 0
    promoted_pages: int = 0
    demoted_pages: int = 0
    promoted_huge_pages: int = 0
    ping_pong_events: int = 0
    profiling_overhead_ns: float = 0.0
    migration_stall_ns: float = 0.0
    threshold: float = 0.0
    slow_bandwidth_util: float = 0.0
    slow_read_fraction: float = 0.5

    @property
    def slow_traffic_bytes(self) -> int:
        return self.slow_read_bytes + self.slow_write_bytes

    @property
    def throughput_aps(self) -> float:
        """Accesses per second during this epoch."""
        if self.duration_ns <= 0:
            return 0.0
        return self.accesses / (self.duration_ns * 1e-9)


#: structured row type mirroring EpochMetrics: fields annotated ``int``
#: as int64, the rest (``float``) as float64 — both lossless for every
#: value the engine records, so buffer reads reproduce the dataclass
#: values exactly.
_HINTS = get_type_hints(EpochMetrics)
EPOCH_DTYPE = np.dtype(
    [(f.name, np.int64 if _HINTS[f.name] is int else np.float64) for f in fields(EpochMetrics)]
)
#: one EpochMetrics as a tuple in EPOCH_DTYPE field order
_row_of = attrgetter(*EPOCH_DTYPE.names)


@dataclass
class SimulationReport:
    """Aggregated results of one (workload, policy) simulation run.

    Epoch rows are accumulated twice: the :class:`EpochMetrics` objects
    (the stable per-epoch API, shared by identity with e.g. per-tenant
    reports) and a preallocated structured numpy buffer that grows
    geometrically.  Every aggregate and timeline readout is served from
    the buffer, so end-of-run reductions are vectorized instead of
    attribute-walking thousands of Python objects.

    The float aggregates intentionally reduce with Python's sequential
    left-to-right summation (via ``tolist``) rather than ``np.sum`` —
    pairwise summation rounds differently, and reports are held to
    bit-identity by the golden-fixture differential harness.
    """

    workload: str = ""
    policy: str = ""
    epochs: list[EpochMetrics] = field(default_factory=list)
    annotations: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._buf = np.zeros(max(len(self.epochs), 64), dtype=EPOCH_DTYPE)
        self._n = 0
        for metrics in self.epochs:
            self._store_row(metrics)

    # ------------------------------------------------------------------
    def _store_row(self, metrics: EpochMetrics) -> None:
        if self._n >= self._buf.size:
            grown = np.zeros(self._buf.size * 2, dtype=EPOCH_DTYPE)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n] = _row_of(metrics)
        self._n += 1

    def append(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)
        self._store_row(metrics)

    def column(self, name: str) -> np.ndarray:
        """One metric across all epochs, as a read-only numpy view."""
        col = self._buf[name][: self._n]
        col.flags.writeable = False
        return col

    # pickling: numpy structured buffers round-trip fine, but rebuilding
    # from the epoch list keeps old pickles (list-only payloads) loadable
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_buf", None)
        state.pop("_n", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._buf = np.zeros(max(len(self.epochs), 64), dtype=EPOCH_DTYPE)
        self._n = 0
        for metrics in self.epochs:
            self._store_row(metrics)

    # ------------------------------------------------------------------
    @property
    def total_time_ns(self) -> float:
        return sum(self.column("duration_ns").tolist())

    @property
    def total_time_s(self) -> float:
        return self.total_time_ns * 1e-9

    @property
    def total_accesses(self) -> int:
        return int(self.column("accesses").sum())

    @property
    def total_llc_misses(self) -> int:
        return int(self.column("llc_misses").sum())

    @property
    def total_slow_traffic_bytes(self) -> int:
        return int(self.column("slow_read_bytes").sum() + self.column("slow_write_bytes").sum())

    @property
    def total_promoted_pages(self) -> int:
        return int(self.column("promoted_pages").sum())

    @property
    def total_demoted_pages(self) -> int:
        return int(self.column("demoted_pages").sum())

    @property
    def total_promoted_huge_pages(self) -> int:
        return int(self.column("promoted_huge_pages").sum())

    @property
    def total_ping_pong_events(self) -> int:
        return int(self.column("ping_pong_events").sum())

    @property
    def total_profiling_overhead_ns(self) -> float:
        return sum(self.column("profiling_overhead_ns").tolist())

    @property
    def throughput_aps(self) -> float:
        """Whole-run accesses per second (the GUPS-style figure of merit)."""
        t = self.total_time_s
        return self.total_accesses / t if t > 0 else 0.0

    @property
    def fast_hit_ratio(self) -> float:
        """Fraction of LLC misses served from the fast tier."""
        misses = self.total_llc_misses
        if misses == 0:
            return 0.0
        return int(self.column("fast_hits").sum()) / misses

    # ------------------------------------------------------------------
    def series(self, attr: str) -> list[float]:
        """Per-epoch timeline of one EpochMetrics attribute."""
        if attr in EPOCH_DTYPE.names:
            # tolist() yields Python ints from int64 columns
            return self.column(attr).tolist()
        # derived properties (slow_traffic_bytes, throughput_aps, ...)
        return [getattr(e, attr) for e in self.epochs]

    def summary(self) -> dict[str, float]:
        """Compact dictionary used by the experiment tables.

        When the run carried telemetry (``REPRO_TELEMETRY=metrics`` or
        ``trace``) the engine's per-phase wall-clock totals ride along as
        ``phase_<name>_s`` keys.
        """
        out = {
            "workload": self.workload,
            "policy": self.policy,
            "runtime_s": self.total_time_s,
            "throughput_aps": self.throughput_aps,
            "llc_misses": self.total_llc_misses,
            "slow_traffic_bytes": self.total_slow_traffic_bytes,
            "promoted_pages": self.total_promoted_pages,
            "demoted_pages": self.total_demoted_pages,
            "ping_pong_events": self.total_ping_pong_events,
            "fast_hit_ratio": self.fast_hit_ratio,
            "profiling_overhead_s": self.total_profiling_overhead_ns * 1e-9,
        }
        telemetry = self.annotations.get("telemetry")
        if isinstance(telemetry, dict):
            for phase, ns in sorted(telemetry.get("phases", {}).items()):
                out[f"phase_{phase}_s"] = float(ns) * 1e-9
        return out
