"""Tests for the report-formatting helpers and replica statistics."""

import math

import pytest

from repro.experiments.reporting import (
    ReplicaStats,
    format_series,
    format_table,
    replica_stats,
    sparkline,
    t_critical_95,
)


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3.0]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "2.500" in out
        assert "xyz" in out

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_custom_float_format(self):
        out = format_table(["x"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out
        assert "1.235" not in out

    def test_wide_cells_expand_columns(self):
        out = format_table(["h"], [["a-very-long-cell"]])
        header, rule, row = out.splitlines()
        assert len(rule) >= len("a-very-long-cell")


class TestFormatSeries:
    def test_pairs_rendered(self):
        out = format_series("s", [1, 2], [3.0, 4.0], "t", "v")
        assert out.startswith("s [t -> v]:")
        assert "(1, 3)" in out
        assert "(2, 4)" in out

    def test_empty(self):
        assert format_series("s", [], []).endswith(": ")


class TestReplicaStats:
    def test_known_values(self):
        """Hand-checked: mean 2.5, sample stddev sqrt(5/3), t(3)=3.182."""
        stats = replica_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.n == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.stddev == pytest.approx(math.sqrt(5.0 / 3.0))
        assert stats.ci95 == pytest.approx(3.182 * math.sqrt(5.0 / 3.0) / 2.0)
        assert stats.lo == pytest.approx(stats.mean - stats.ci95)
        assert stats.hi == pytest.approx(stats.mean + stats.ci95)

    def test_pair(self):
        """n=2: stddev sqrt(2)/sqrt(2)... s = |a-b|/sqrt(2), t(1)=12.706."""
        a, b = 10.0, 12.0
        stats = replica_stats([a, b])
        s = abs(a - b) / math.sqrt(2.0)
        assert stats.stddev == pytest.approx(s)
        assert stats.ci95 == pytest.approx(12.706 * s / math.sqrt(2.0))

    def test_single_value_degenerates(self):
        stats = replica_stats([7.0])
        assert stats == ReplicaStats(mean=7.0, stddev=0.0, ci95=0.0, n=1)

    def test_identical_replicas_zero_spread(self):
        stats = replica_stats([3.0, 3.0, 3.0])
        assert stats.stddev == 0.0
        assert stats.ci95 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            replica_stats([])

    def test_t_table(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        # banded upper bounds between the table and the normal limit
        assert t_critical_95(31) == pytest.approx(2.042)
        assert t_critical_95(50) == pytest.approx(2.021)
        assert t_critical_95(100) == pytest.approx(2.000)
        assert t_critical_95(300) == pytest.approx(1.960)
        # monotone non-increasing in df, never below the normal value
        values = [t_critical_95(df) for df in range(1, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert min(values) >= 1.960
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_str_has_mean_and_interval(self):
        text = str(replica_stats([1.0, 2.0, 3.0]))
        assert "±" in text and "n=3" in text


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_flat_series_no_crash(self):
        line = sparkline([5, 5, 5])
        assert len(line) == 3

    def test_downsampling(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) == 50
