"""End-to-end telemetry: metrics registry, phase timers, event tracing.

The observability layer every perf claim reports through:

* :mod:`repro.telemetry.registry` — process-local counters, gauges and
  log2-bucket histograms, with parent-forwarding child registries for
  per-tenant partitioning;
* :mod:`repro.telemetry.core` — the :class:`Telemetry` hub: modes
  driven by ``REPRO_TELEMETRY`` (``off``/``metrics``/``trace``),
  ``span(name)`` phase timers with exclusive-time accounting, and the
  bounded trace buffer;
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto)
  and the JSONL run manifest written next to sweep cache entries.

Enable with ``REPRO_TELEMETRY=metrics`` (counters + phase totals in
report annotations) or ``REPRO_TELEMETRY=trace`` (plus a Perfetto
trace); the default is ``off`` and costs nothing measurable.
"""

from repro.telemetry.core import (
    DISABLED,
    MODE_METRICS,
    MODE_OFF,
    MODE_TRACE,
    NOOP_METRIC,
    NOOP_SPAN,
    TELEMETRY_ENV,
    Telemetry,
    TraceBuffer,
    configure,
    deterministic_annotation,
    deterministic_counters,
    engine_telemetry,
    get_telemetry,
    parse_mode,
)
from repro.telemetry.export import (
    MANIFEST_NAME,
    append_manifest,
    chrome_trace_events,
    export_chrome_trace,
    git_revision,
    manifest_record,
    read_manifest,
)
from repro.telemetry.registry import (
    HISTOGRAM_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DISABLED",
    "MODE_METRICS",
    "MODE_OFF",
    "MODE_TRACE",
    "NOOP_METRIC",
    "NOOP_SPAN",
    "TELEMETRY_ENV",
    "Telemetry",
    "TraceBuffer",
    "configure",
    "deterministic_annotation",
    "deterministic_counters",
    "engine_telemetry",
    "get_telemetry",
    "parse_mode",
    "MANIFEST_NAME",
    "append_manifest",
    "chrome_trace_events",
    "export_chrome_trace",
    "git_revision",
    "manifest_record",
    "read_manifest",
    "HISTOGRAM_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
