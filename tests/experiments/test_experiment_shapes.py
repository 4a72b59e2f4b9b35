"""Smoke tests: each figure harness produces sane, paper-shaped output.

These run on SMOKE_CONFIG (tiny) so the full test suite stays fast; the
benchmarks/ harnesses run the real scaled configuration and assert the
quantitative shapes.
"""

from repro.experiments import fig03, fig04, fig14, fig16, fig17, overhead, table01
from repro.experiments.config import SMOKE_CONFIG


class TestFig03:
    def test_latency_ladder(self):
        rungs = fig03.run_fig03a()
        assert [r.name for r in rungs] == [
            "ddr5-local", "cxl-dram-ideal", "cxl-dram-proto",
        ]
        assert rungs[2].ratio_vs_local > 3.0

    def test_slowdown_positive(self):
        slowdowns = fig03.run_fig03b(SMOKE_CONFIG, workloads=("gups",))
        assert slowdowns["gups"] > 0


class TestFig04:
    def test_frontier_points(self):
        points = fig04.run_fig04a(
            SMOKE_CONFIG, intervals_ms=(0.5,), region_counts=(16, 256)
        )
        assert len(points) == 2
        assert points[1].overhead_percent > points[0].overhead_percent

    def test_neoprof_point_free(self):
        point = fig04.run_fig04a_neoprof_point(SMOKE_CONFIG)
        assert point.overhead_percent < 1.0

    def test_dispersion_result(self):
        result = fig04.run_fig04b(num_pages=1024, accesses=40_000)
        assert result.sampled_pages > 50
        assert -1.0 <= result.pearson_r <= 1.0

    def test_pebs_curve_monotone(self):
        curve = fig04.run_fig04c(SMOKE_CONFIG, sample_intervals=(10, 1000))
        assert curve[10] > curve[1000]


class TestFig14:
    def test_pagerank_profile(self):
        profile = fig14.run_pagerank("neomem", SMOKE_CONFIG)
        assert len(profile.iteration_times_s) == 16
        assert all(t > 0 for t in profile.iteration_times_s)
        assert profile.threshold_timeline
        assert profile.histogram_strips

    def test_fixed_threshold_profile(self):
        profile = fig14.run_pagerank("neomem-fixed-32", SMOKE_CONFIG)
        assert all(theta == 32 for _, theta in profile.threshold_timeline)


class TestFig16:
    def test_curve_mechanics(self):
        curves = fig16.run_fig16(
            SMOKE_CONFIG,
            methods={"neoprof": "neomem", "baseline": "first-touch"},
            total_batches=16,
            relocate_at=8,
        )
        assert set(curves) == {"neoprof", "baseline"}
        for curve in curves.values():
            assert len(curve.throughput) == 16
            assert curve.mean_before() > 0


class TestFig17:
    def test_memtis_comparison(self):
        reports = fig17.run_fig17(SMOKE_CONFIG, workloads=("gups",))
        norm = fig17.normalized_to_neomem(reports)
        assert "geomean" in norm
        assert norm["gups"] > 0


class TestTable01:
    def test_rows_complete(self):
        rows = table01.run_table01(SMOKE_CONFIG)
        names = {r.name for r in rows}
        assert names == {"pte-scan", "hint-fault", "pebs", "neoprof"}
        neoprof = next(r for r in rows if r.name == "neoprof")
        assert neoprof.resolution == 1.0


class TestOverhead:
    def test_overhead_small(self):
        result = overhead.run_overhead(SMOKE_CONFIG)
        assert result["slowdown_percent"] < 5.0
        assert result["baseline_s"] > 0
