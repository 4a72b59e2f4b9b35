"""Metrics registry: counter/gauge/histogram math and partitioning."""
# repro: noqa-file TEL002 — unit tests of the metric classes themselves

import pytest

from repro.telemetry import HISTOGRAM_BUCKETS, Histogram, MetricsRegistry


class TestCounter:
    def test_create_or_get_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("pages")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_negative_inc_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("pages").inc(-1)

    def test_counters_iterates_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        assert list(reg.counters()) == [("a", 1), ("b", 2)]


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("threshold")
        g.set(8.0)
        g.set(3.0)
        assert g.value == 3.0


class TestHistogram:
    def test_log2_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("batch")
        for v in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
            h.observe(v)
        # bucket b covers [2^(b-1), 2^b): 0->0, 1->1, {2,3}->2, {4..7}->3
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[2] == 2
        assert h.counts[3] == 2
        assert h.counts[4] == 1  # 8
        assert h.counts[10] == 1  # 1023
        assert h.counts[11] == 1  # 1024
        assert h.count == 9
        assert h.total == sum((0, 1, 2, 3, 4, 7, 8, 1023, 1024))

    def test_huge_values_clamp_to_top_bucket(self):
        h = Histogram()
        h.observe(1 << 200)
        assert h.counts[HISTOGRAM_BUCKETS - 1] == 1

    def test_mean(self):
        h = Histogram()
        assert h.mean == 0.0
        h.observe(10)
        h.observe(20)
        assert h.mean == 15.0


class TestPartitioning:
    def test_child_counter_forwards_to_parent(self):
        machine = MetricsRegistry()
        a, b = machine.child(), machine.child()
        a.counter("promoted").inc(3)
        b.counter("promoted").inc(4)
        assert a.counter("promoted").value == 3
        assert b.counter("promoted").value == 4
        assert machine.counter("promoted").value == 7

    def test_tenant_sums_equal_machine_totals(self):
        machine = MetricsRegistry()
        tenants = [machine.child() for _ in range(3)]
        for i, tenant in enumerate(tenants):
            tenant.counter("epochs").inc(i + 1)
            tenant.histogram("sizes").observe(10 * (i + 1))
        assert machine.counter("epochs").value == sum(
            t.counter("epochs").value for t in tenants
        )
        assert machine.histogram("sizes").count == 3
        assert machine.histogram("sizes").total == 60

    def test_child_gauge_forwards(self):
        machine = MetricsRegistry()
        child = machine.child()
        child.gauge("threshold").set(5.0)
        assert machine.gauge("threshold").value == 5.0


class TestSnapshot:
    def test_snapshot_is_plain_data(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(3)
        json.dumps(reg.snapshot())  # must not raise
