"""Telemetry hub: modes, phase-timer spans, and the event trace buffer.

One :class:`Telemetry` object bundles a mode, a
:class:`~repro.telemetry.registry.MetricsRegistry` and (in trace mode)
a shared :class:`TraceBuffer`.  The process-global instance
(:func:`get_telemetry`) is configured from ``REPRO_TELEMETRY``:

* ``off`` (default) — spans are a shared no-op context manager and
  counters are inert singletons, so instrumented hot paths cost one
  attribute load and an empty ``with`` block (< 2 % on the smallest
  figure job, pinned by tests);
* ``metrics`` (aliases ``on``/``1``/``true``) — counters, gauges,
  histograms and span *totals* are collected;
* ``trace`` — everything above, plus every span and instant event is
  appended to the trace buffer for Chrome-trace export
  (:func:`repro.telemetry.export_chrome_trace`, loadable in Perfetto).

Spans measure wall clock (``time.perf_counter_ns``) and account
**exclusive** time: a nested span's duration is subtracted from its
parent, so per-phase totals (``profile``/``plan``/``migrate``/
``account``) sum without double counting even though migration spans
nest inside the policy's planning span.  Telemetry never feeds back
into simulation state, so enabling it cannot change a report.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from repro.telemetry.registry import MetricsRegistry

#: environment knob selecting the telemetry mode
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: modes, ordered by how much they collect
MODE_OFF = 0
MODE_METRICS = 1
MODE_TRACE = 2

_MODE_NAMES = {MODE_OFF: "off", MODE_METRICS: "metrics", MODE_TRACE: "trace"}
_MODE_ALIASES = {
    "": MODE_OFF,
    "off": MODE_OFF,
    "0": MODE_OFF,
    "false": MODE_OFF,
    "none": MODE_OFF,
    "metrics": MODE_METRICS,
    "on": MODE_METRICS,
    "1": MODE_METRICS,
    "true": MODE_METRICS,
    "trace": MODE_TRACE,
}


def parse_mode(raw: str | int | None) -> int:
    """Map a mode name (or ``REPRO_TELEMETRY`` value) to a mode int."""
    if isinstance(raw, int):
        if raw not in _MODE_NAMES:
            raise ValueError(f"unknown telemetry mode {raw!r}")
        return raw
    key = (raw or "").strip().lower()
    if key not in _MODE_ALIASES:
        known = ", ".join(sorted(k for k in _MODE_ALIASES if k))
        raise ValueError(f"unknown telemetry mode {raw!r} (known: {known})")
    return _MODE_ALIASES[key]


class _NoopSpan:
    """Shared do-nothing context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NOOP_SPAN = _NoopSpan()


class _NoopCounter:
    """Inert counter/gauge/histogram handed out when telemetry is off."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: int) -> None:
        pass


NOOP_METRIC = _NoopCounter()


class TraceBuffer:
    """Bounded append-only store of span and instant events.

    Events are tuples ``(phase, name, ts_ns, dur_ns, track, args)``
    where ``phase`` is the Chrome trace-event type (``"X"`` complete,
    ``"i"`` instant).  Overflow drops new events and counts them, so a
    runaway trace degrades instead of eating the heap.
    """

    def __init__(self, max_events: int = 500_000) -> None:
        self.max_events = int(max_events)
        self.events: list[tuple] = []
        self.dropped = 0
        #: track id -> human label (Perfetto lane names)
        self.track_labels: dict[int, str] = {0: "sweep"}
        self._next_track = 1

    def new_track(self, label: str) -> int:
        """Allocate a trace lane (one per engine, lane 0 is the sweep)."""
        track = self._next_track
        self._next_track += 1
        self.track_labels[track] = label
        return track

    def add_span(self, name: str, start_ns: int, dur_ns: int, track: int) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(("X", name, start_ns, dur_ns, track, None))

    def add_instant(self, name: str, ts_ns: int, track: int, args: dict | None) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(("i", name, ts_ns, 0, track, args))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


class _Span:
    """One live phase timer; exclusive-time accounting via the stack."""

    __slots__ = ("tel", "name", "start", "child_ns")

    def __init__(self, tel: "Telemetry", name: str) -> None:
        self.tel = tel
        self.name = name
        self.child_ns = 0

    def __enter__(self) -> "_Span":
        self.tel._stack.append(self)
        self.start = self.tel.clock()
        return self

    def __exit__(self, *exc) -> bool:
        tel = self.tel
        dur = tel.clock() - self.start
        stack = tel._stack
        stack.pop()
        if stack:
            stack[-1].child_ns += dur
        reg = tel.registry
        reg.counter(f"phase.{self.name}.ns").inc(max(dur - self.child_ns, 0))
        reg.counter(f"phase.{self.name}.calls").inc()
        if tel.trace is not None and tel.mode >= MODE_TRACE:
            tel.trace.add_span(self.name, self.start, dur, tel.track)
        return False


class Telemetry:
    """Mode + registry + (optional) trace buffer + span stack.

    Engines get their own instance (private registry, shared trace
    buffer, own trace lane) via :func:`engine_telemetry`; the sweep
    layer uses the process-global instance directly.
    """

    def __init__(
        self,
        mode: int | str = MODE_OFF,
        registry: MetricsRegistry | None = None,
        trace: TraceBuffer | None = None,
        track: int = 0,
        clock=time.perf_counter_ns,
    ) -> None:
        self.mode = parse_mode(mode)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.track = track
        self.clock = clock
        self._stack: list[_Span] = []

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.mode >= MODE_METRICS

    @property
    def tracing(self) -> bool:
        return self.mode >= MODE_TRACE and self.trace is not None

    @property
    def mode_name(self) -> str:
        return _MODE_NAMES[self.mode]

    # ------------------------------------------------------------------
    def span(self, name: str):
        """Phase timer context manager; a shared no-op when disabled."""
        if self.mode == MODE_OFF:
            return NOOP_SPAN
        return _Span(self, name)

    def counter(self, name: str):
        if self.mode == MODE_OFF:
            return NOOP_METRIC
        return self.registry.counter(name)

    def gauge(self, name: str):
        if self.mode == MODE_OFF:
            return NOOP_METRIC
        return self.registry.gauge(name)

    def histogram(self, name: str):
        if self.mode == MODE_OFF:
            return NOOP_METRIC
        return self.registry.histogram(name)

    def event(self, name: str, **args) -> None:
        """Record an instant audit event (trace mode only)."""
        if self.tracing:
            self.trace.add_instant(name, self.clock(), self.track, args or None)

    @contextmanager
    def scoped_registry(self, registry: MetricsRegistry):
        """Temporarily route metrics to ``registry`` (tenant partitioning)."""
        prev = self.registry
        self.registry = registry
        try:
            yield registry
        finally:
            self.registry = prev

    # ------------------------------------------------------------------
    def phase_totals(self) -> dict[str, int]:
        """Exclusive wall-clock nanoseconds per span name."""
        out: dict[str, int] = {}
        for name, value in self.registry.counters():
            if _wall_clock(name):
                out[name[len("phase.") : -len(".ns")]] = value
        return out

    def summary(self) -> dict:
        """Picklable digest: phase totals + full registry snapshot."""
        return {
            "mode": self.mode_name,
            "phases": self.phase_totals(),
            **self.registry.snapshot(),
        }


def _wall_clock(counter: str) -> bool:
    return counter.startswith("phase.") and counter.endswith(".ns")


def deterministic_counters(counters: dict) -> dict:
    """``counters`` without the wall-clock span totals (``phase.<name>.ns``);
    their ``phase.<name>.calls`` companions are deterministic and stay."""
    return {name: value for name, value in counters.items() if not _wall_clock(name)}


def deterministic_annotation(annotation: dict) -> dict:
    """A report's telemetry annotation without its wall-clock entries.

    ``annotation`` is a :meth:`Telemetry.summary` or a mapping of
    registry snapshots (a co-location's machine and tenants).  Its
    ``phases`` go, and each ``counters`` map keeps only deterministic
    counters, so two runs of one job annotate alike.
    """
    out = {}
    for key, value in annotation.items():
        if key == "phases":
            continue
        if key == "counters":
            value = deterministic_counters(value)
        elif isinstance(value, dict):
            value = deterministic_annotation(value)
        out[key] = value
    return out


#: shared disabled instance: the default for components built without
#: an explicit telemetry hookup (stand-alone MigrationEngine in tests)
DISABLED = Telemetry(MODE_OFF)

_GLOBAL: Telemetry | None = None


def get_telemetry() -> Telemetry:
    """The process-global instance, built from ``REPRO_TELEMETRY`` once."""
    global _GLOBAL
    if _GLOBAL is None:
        mode = parse_mode(os.environ.get(TELEMETRY_ENV))
        trace = TraceBuffer() if mode >= MODE_TRACE else None
        _GLOBAL = Telemetry(mode, trace=trace)
    return _GLOBAL


def configure(mode: int | str, max_events: int = 500_000) -> Telemetry:
    """(Re)build the process-global telemetry at an explicit mode.

    The CLI's ``trace`` subcommand and tests use this instead of the
    environment variable; the previous global (and its buffers) is
    dropped wholesale so runs start clean.
    """
    global _GLOBAL
    mode = parse_mode(mode)
    trace = TraceBuffer(max_events) if mode >= MODE_TRACE else None
    _GLOBAL = Telemetry(mode, trace=trace)
    return _GLOBAL


def engine_telemetry(label: str = "engine") -> Telemetry:
    """A per-engine telemetry slice of the global configuration.

    Each engine gets a private registry (so per-job totals do not mix
    when a sweep runs many engines in one process) and its own lane in
    the *shared* trace buffer (so one Chrome trace shows every job).
    With telemetry off this returns the global disabled instance —
    zero per-engine allocation on the default path.
    """
    root = get_telemetry()
    if root.mode == MODE_OFF:
        return root
    track = root.trace.new_track(label) if root.trace is not None else 0
    return Telemetry(root.mode, trace=root.trace, track=track, clock=root.clock)
