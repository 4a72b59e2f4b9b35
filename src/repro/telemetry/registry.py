"""Process-local metrics registry: counters, gauges, log2 histograms.

No dependencies, no locks (the simulator is single-threaded per
process; cross-process aggregation happens through snapshots riding
report annotations).  Three metric kinds cover everything the engine
and sweep layers publish:

* :class:`Counter` — monotonically increasing integer (pages promoted,
  epochs simulated, span nanoseconds).
* :class:`Gauge` — last-write-wins scalar (current hotness threshold).
* :class:`Histogram` — fixed log2 buckets: ``observe(v)`` lands in
  bucket ``bit_length(v)``, so bucket ``b`` covers ``[2^(b-1), 2^b)``.
  64 buckets span any int64 value; no allocation per observation.

Registries form a tree for multi-tenant partitioning: a
:meth:`MetricsRegistry.child` registry forwards every increment to its
parent, so per-tenant child registries *partition* the machine registry
exactly — the sum of tenant counters equals the machine counter, the
invariant :mod:`repro.multitenant` already maintains for its
epoch-metrics accounting.
"""

from __future__ import annotations

from typing import Iterator

#: log2 histogram resolution: bucket b covers [2^(b-1), 2^b)
HISTOGRAM_BUCKETS = 64


class Counter:
    """Monotonic integer counter, optionally forwarding to a parent."""

    __slots__ = ("value", "_parent")

    def __init__(self, parent: "Counter | None" = None) -> None:
        self.value = 0
        self._parent = parent

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got inc({n})")
        self.value += n
        if self._parent is not None:
            self._parent.inc(n)


class Gauge:
    """Last-write-wins scalar, optionally forwarding to a parent."""

    __slots__ = ("value", "_parent")

    def __init__(self, parent: "Gauge | None" = None) -> None:
        self.value = 0.0
        self._parent = parent

    def set(self, value: float) -> None:
        self.value = float(value)
        if self._parent is not None:
            self._parent.set(value)


class Histogram:
    """Fixed log2-bucket histogram (value distribution, e.g. batch sizes).

    ``observe(v)`` is O(1) and allocation-free: non-positive values land
    in bucket 0, value ``v >= 1`` in bucket ``v.bit_length()`` (clamped
    to the top bucket), so bucket boundaries are powers of two.
    """

    __slots__ = ("counts", "total", "count", "_parent")

    def __init__(self, parent: "Histogram | None" = None) -> None:
        self.counts = [0] * HISTOGRAM_BUCKETS
        self.total = 0
        self.count = 0
        self._parent = parent

    def observe(self, value: int) -> None:
        value = int(value)
        bucket = min(value.bit_length(), HISTOGRAM_BUCKETS - 1) if value > 0 else 0
        self.counts[bucket] += 1
        self.total += value
        self.count += 1
        if self._parent is not None:
            self._parent.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Create-or-get store of named metrics, snapshot-able to plain data.

    A registry built with ``parent=`` forwards every update to the
    same-named metric in the parent (creating it on demand), which is
    how the co-location engine partitions machine telemetry per tenant.
    """

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self.parent = parent
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            up = self.parent.counter(name) if self.parent is not None else None
            metric = self._counters[name] = Counter(parent=up)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            up = self.parent.gauge(name) if self.parent is not None else None
            metric = self._gauges[name] = Gauge(parent=up)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            up = self.parent.histogram(name) if self.parent is not None else None
            metric = self._histograms[name] = Histogram(parent=up)
        return metric

    def child(self) -> "MetricsRegistry":
        """A registry whose every update also lands here (partitioning)."""
        return MetricsRegistry(parent=self)

    # ------------------------------------------------------------------
    def counters(self) -> Iterator[tuple[str, int]]:
        for name in sorted(self._counters):
            yield name, self._counters[name].value

    def snapshot(self) -> dict:
        """Plain picklable/JSON-able dump of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {"counts": list(h.counts), "total": h.total, "count": h.count}
                for n, h in sorted(self._histograms.items())
            },
        }
