"""Tests for epoch metrics and simulation reports."""

import pytest

from repro.memsim.metrics import EPOCH_DTYPE, EpochMetrics, SimulationReport


def make_epoch(i, duration_ns=1000.0, accesses=100, **kwargs):
    return EpochMetrics(
        epoch=i,
        sim_time_ns=i * duration_ns,
        duration_ns=duration_ns,
        accesses=accesses,
        **kwargs,
    )


class TestEpochMetrics:
    def test_slow_traffic_sum(self):
        e = make_epoch(0, slow_read_bytes=100, slow_write_bytes=50)
        assert e.slow_traffic_bytes == 150

    def test_throughput(self):
        e = make_epoch(0, duration_ns=1e9, accesses=500)
        assert e.throughput_aps == pytest.approx(500.0)

    def test_throughput_zero_duration(self):
        e = EpochMetrics(duration_ns=0.0, accesses=10)
        assert e.throughput_aps == 0.0


class TestEpochDtype:
    def test_row_layout_is_pinned(self):
        """The buffer's row type follows EpochMetrics' annotations; value
        digests hash each column's dtype, so the layout must not drift."""
        assert EPOCH_DTYPE.descr == [
            ("epoch", "<i8"),
            ("sim_time_ns", "<f8"),
            ("duration_ns", "<f8"),
            ("accesses", "<i8"),
            ("llc_misses", "<i8"),
            ("fast_hits", "<i8"),
            ("slow_hits", "<i8"),
            ("slow_read_bytes", "<i8"),
            ("slow_write_bytes", "<i8"),
            ("promoted_pages", "<i8"),
            ("demoted_pages", "<i8"),
            ("promoted_huge_pages", "<i8"),
            ("ping_pong_events", "<i8"),
            ("profiling_overhead_ns", "<f8"),
            ("migration_stall_ns", "<f8"),
            ("threshold", "<f8"),
            ("slow_bandwidth_util", "<f8"),
            ("slow_read_fraction", "<f8"),
        ]


class TestSimulationReport:
    def test_aggregation(self):
        report = SimulationReport(workload="w", policy="p")
        for i in range(3):
            report.append(make_epoch(i, llc_misses=10, promoted_pages=2))
        assert report.total_time_ns == pytest.approx(3000.0)
        assert report.total_accesses == 300
        assert report.total_llc_misses == 30
        assert report.total_promoted_pages == 6

    def test_fast_hit_ratio(self):
        report = SimulationReport()
        report.append(make_epoch(0, llc_misses=10, fast_hits=7, slow_hits=3))
        assert report.fast_hit_ratio == pytest.approx(0.7)

    def test_fast_hit_ratio_no_misses(self):
        report = SimulationReport()
        report.append(make_epoch(0))
        assert report.fast_hit_ratio == 0.0

    def test_throughput_whole_run(self):
        report = SimulationReport()
        report.append(make_epoch(0, duration_ns=5e8, accesses=100))
        report.append(make_epoch(1, duration_ns=5e8, accesses=100))
        assert report.throughput_aps == pytest.approx(200.0)

    def test_series(self):
        report = SimulationReport()
        for i in range(4):
            report.append(make_epoch(i, promoted_pages=i, threshold=i / 2))
        assert report.series("promoted_pages") == [0, 1, 2, 3]
        assert report.series("threshold") == [0.0, 0.5, 1.0, 1.5]
        # Python scalars of each field's type, not numpy scalars
        assert {type(v) for v in report.series("promoted_pages")} == {int}
        assert {type(v) for v in report.series("threshold")} == {float}

    def test_summary_keys(self):
        report = SimulationReport(workload="gups", policy="neomem")
        report.append(make_epoch(0))
        summary = report.summary()
        for key in (
            "workload", "policy", "runtime_s", "throughput_aps",
            "slow_traffic_bytes", "promoted_pages", "fast_hit_ratio",
        ):
            assert key in summary
        assert summary["workload"] == "gups"

    def test_empty_report_is_safe(self):
        report = SimulationReport()
        assert report.total_time_s == 0.0
        assert report.throughput_aps == 0.0
        assert report.fast_hit_ratio == 0.0

    def test_zero_epoch_report_summary_is_safe(self):
        """Regression: a run that produced no epochs (an exhausted
        workload) must summarize to zeros, not divide by zero."""
        summary = SimulationReport(workload="w", policy="p").summary()
        assert summary["runtime_s"] == 0.0
        assert summary["throughput_aps"] == 0.0
        assert summary["fast_hit_ratio"] == 0.0

    def test_zero_duration_epochs_throughput_is_safe(self):
        report = SimulationReport()
        report.append(EpochMetrics(duration_ns=0.0, accesses=10))
        assert report.throughput_aps == 0.0

    def test_summary_includes_phase_seconds_when_telemetry_present(self):
        report = SimulationReport(workload="w", policy="p")
        report.append(make_epoch(0))
        report.annotations["telemetry"] = {
            "mode": "metrics",
            "phases": {"account": 2_000_000_000, "plan": 500_000_000},
        }
        summary = report.summary()
        assert summary["phase_account_s"] == pytest.approx(2.0)
        assert summary["phase_plan_s"] == pytest.approx(0.5)

    def test_summary_without_telemetry_has_no_phase_keys(self):
        report = SimulationReport()
        report.append(make_epoch(0))
        assert not any(k.startswith("phase_") for k in report.summary())
