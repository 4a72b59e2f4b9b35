"""Engine + telemetry integration: phases, counters, audit events,
determinism, and the disabled-mode fast path."""
# repro: noqa-file DET002, TEL001, TEL003 — telemetry tests time real wall clocks and exercise span/drain contracts directly

import time

import numpy as np
import pytest

from repro.telemetry import (
    NOOP_METRIC,
    NOOP_SPAN,
    configure,
    engine_telemetry,
    export_chrome_trace,
    get_telemetry,
)
from tests.memsim.test_engine import PromoteAllPolicy, build_engine

PHASES = {"account", "profile", "plan", "migrate"}


@pytest.fixture
def telemetry_mode():
    """Set the process-global telemetry mode; restore 'off' afterwards."""

    def set_mode(mode):
        return configure(mode)

    yield set_mode
    configure("off")


class TestMetricsMode:
    def test_report_carries_phase_totals(self, telemetry_mode):
        telemetry_mode("metrics")
        report = build_engine(policy=PromoteAllPolicy(), fast=300, slow=4000,
                              num_pages=3000).run()
        telemetry = report.annotations["telemetry"]
        assert telemetry["mode"] == "metrics"
        assert set(telemetry["phases"]) == PHASES
        assert all(ns >= 0 for ns in telemetry["phases"].values())
        # the hot phases actually accumulated time
        assert telemetry["phases"]["account"] > 0
        assert telemetry["phases"]["plan"] > 0

    def test_engine_counters_match_report(self, telemetry_mode):
        telemetry_mode("metrics")
        engine = build_engine(policy=PromoteAllPolicy(), fast=300, slow=4000,
                              num_pages=3000)
        report = engine.run()
        counters = report.annotations["telemetry"]["counters"]
        assert counters["engine.epochs"] == len(report.epochs)
        assert counters["engine.accesses"] == report.total_accesses
        assert counters["engine.llc_misses"] == report.total_llc_misses
        assert counters["migration.promote.pages"] == report.total_promoted_pages

    def test_summary_exposes_phase_seconds(self, telemetry_mode):
        telemetry_mode("metrics")
        report = build_engine().run()
        summary = report.summary()
        for phase in PHASES - {"migrate"}:  # null policy never migrates
            assert summary[f"phase_{phase}_s"] >= 0.0

    def test_engines_get_private_registries(self, telemetry_mode):
        telemetry_mode("metrics")
        a = build_engine()
        b = build_engine()
        a.run()
        b.run()
        assert a.telemetry is not b.telemetry
        assert a.telemetry.registry.counter("engine.epochs").value == 5
        assert b.telemetry.registry.counter("engine.epochs").value == 5


class TestTraceMode:
    def test_trace_has_phase_spans_and_audit_events(self, telemetry_mode):
        telemetry_mode("trace")
        build_engine(policy=PromoteAllPolicy(), fast=300, slow=4000,
                     num_pages=3000).run()
        document = export_chrome_trace(None, get_telemetry())
        spans = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert PHASES <= spans
        instants = {e["name"] for e in document["traceEvents"] if e["ph"] == "i"}
        assert "migration.promote" in instants

    def test_engines_trace_into_shared_buffer_on_own_lanes(self, telemetry_mode):
        telemetry_mode("trace")
        a = build_engine()
        b = build_engine()
        a.run()
        b.run()
        assert a.telemetry.trace is b.telemetry.trace
        assert a.telemetry.track != b.telemetry.track


class TestDeterminism:
    def test_telemetry_does_not_change_the_simulation(self, telemetry_mode):
        def epochs(mode):
            telemetry_mode(mode)
            return build_engine(policy=PromoteAllPolicy(), fast=300, slow=4000,
                                num_pages=3000).run().epochs

        assert epochs("off") == epochs("metrics") == epochs("trace")


class TestDisabledMode:
    def test_off_mode_hands_out_shared_noops(self, telemetry_mode):
        telemetry_mode("off")
        tel = engine_telemetry("x")
        assert tel is get_telemetry()  # no per-engine allocation
        assert tel.span("account") is NOOP_SPAN
        assert tel.counter("c") is NOOP_METRIC

    def test_off_mode_report_has_no_telemetry_annotation(self, telemetry_mode):
        telemetry_mode("off")
        report = build_engine().run()
        assert "telemetry" not in report.annotations

    def test_noop_span_overhead_is_negligible(self, telemetry_mode):
        """The instrumented hot path costs one attribute load + an empty
        ``with`` per phase; 400k of them must stay well under wall-clock
        noise (generous bound: CI boxes are slow, not *that* slow)."""
        telemetry_mode("off")
        tel = get_telemetry()
        span = tel.span  # what engine.step does per phase
        start = time.perf_counter()
        for _ in range(400_000):
            with span("account"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"noop span overhead too high: {elapsed:.3f}s"

    def test_stub_engine_off_vs_metrics_wall_clock(self, telemetry_mode):
        """Telemetry off must not be slower than metrics mode (sanity:
        the disabled path is the cheap one; generous 1.5x margin soaks
        scheduler noise on loaded CI boxes)."""

        def run(mode):
            telemetry_mode(mode)
            engine = build_engine(fast=500, slow=4000, num_pages=3000, batches=8)
            start = time.perf_counter()
            engine.run()
            return time.perf_counter() - start

        run("off")  # warm caches/JIT'd numpy paths
        off_s, metrics_s = [], []
        for _ in range(7):  # alternate, so a noise burst hits both modes
            off_s.append(run("off"))
            metrics_s.append(run("metrics"))
        assert min(off_s) <= min(metrics_s) * 1.5, (off_s, metrics_s)


class TestDrainGuard:
    def test_drain_is_once_per_window(self):
        engine = build_engine(policy=PromoteAllPolicy(), fast=300, slow=4000,
                              num_pages=3000)
        pages = np.arange(0, 3000, dtype=np.int64)
        engine.step(pages, np.zeros(pages.size, dtype=bool))
        # the engine drained this epoch's window; another drain must trip
        with pytest.raises(RuntimeError, match="drained twice"):
            engine.migration.drain_stats()
