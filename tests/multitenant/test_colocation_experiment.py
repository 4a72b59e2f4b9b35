"""Colocation experiment harness tests: slowdown, fairness, sweep."""

import pytest

from repro.experiments.colocation import (
    DEFAULT_MIX,
    build_colocation,
    format_colocation,
    make_tenant_specs,
    run_colocation,
    run_colocation_sweep,
)
from repro.experiments.config import ExperimentConfig
from repro.multitenant import jain_fairness

TINY = ExperimentConfig(num_pages=8192, batches=6, batch_size=8192)


class TestJainFairness:
    def test_perfectly_even(self):
        assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_single_hog(self):
        # one value dwarfing the rest drives the index toward 1/n
        assert jain_fairness([100.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_bounds(self):
        values = [1.0, 3.0, 2.5, 0.5]
        f = jain_fairness(values)
        assert 1.0 / len(values) <= f <= 1.0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([1.0, -2.0])


class TestMakeTenantSpecs:
    def test_splits_machine_rss(self):
        specs = make_tenant_specs(4, TINY)
        assert len(specs) == 4
        assert all(s.num_pages == max(1024, TINY.num_pages // 4) for s in specs)
        assert [s.workload for s in specs] == list(DEFAULT_MIX)

    def test_mix_cycles(self):
        specs = make_tenant_specs(6, TINY)
        assert specs[4].workload == DEFAULT_MIX[0]
        assert specs[5].workload == DEFAULT_MIX[1]

    def test_knobs_applied(self):
        specs = make_tenant_specs(
            2, TINY, weights=[2.0, 1.0], priorities=[1, 0], fast_quota_fractions=[0.5, None]
        )
        assert specs[0].weight == 2.0 and specs[0].priority == 1
        assert specs[0].fast_quota_fraction == 0.5
        assert specs[1].fast_quota_fraction is None

    def test_needs_a_tenant(self):
        with pytest.raises(ValueError):
            make_tenant_specs(0, TINY)


class TestRunColocation:
    def test_reports_slowdown_and_fairness(self):
        specs = make_tenant_specs(2, TINY)
        report = run_colocation(specs, "neomem", TINY)
        slowdowns = report.slowdowns
        assert set(slowdowns) == {s.name for s in specs}
        # contention can only hurt; allow small noise below 1.0
        assert all(s > 0.9 for s in slowdowns.values())
        assert any(s > 1.0 for s in slowdowns.values())
        assert 1.0 / len(specs) <= report.fairness() <= 1.0

    def test_without_baselines_fairness_unavailable(self):
        specs = make_tenant_specs(2, TINY)
        engine = build_colocation(specs, "pebs", TINY)
        report = engine.run()
        assert report.slowdowns == {}
        with pytest.raises(ValueError):
            report.fairness()

    def test_summary_row_fields(self):
        specs = make_tenant_specs(2, TINY)
        report = run_colocation(specs, "pebs", TINY)
        row = report.summary()
        keys = ("policy", "scheduler", "tenants", "fairness", "mean_slowdown", "worst_slowdown")
        for key in keys:
            assert key in row
        assert row["tenants"] == 2


class TestSweep:
    def test_sweep_and_format(self):
        rows = run_colocation_sweep(
            tenant_counts=(2,),
            schedulers=("round-robin", "weighted-share"),
            policy_name="pebs",
            config=TINY,
        )
        assert len(rows) == 2
        assert {row["scheduler"] for row in rows} == {"round-robin", "weighted-share"}
        for row in rows:
            assert row["tenants"] == 2
            assert len(row["slowdowns"]) == 2
        table = format_colocation(rows)
        assert "round-robin" in table and "weighted-share" in table
        assert "fairness" in table
