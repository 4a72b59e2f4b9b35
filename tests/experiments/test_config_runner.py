"""Tests for the experiment configuration and runner."""

import numpy as np
import pytest

from repro.experiments.config import (
    DEFAULT_CONFIG,
    SMOKE_CONFIG,
    WORKLOAD_RSS_FACTOR,
    ExperimentConfig,
)
from repro.experiments.runner import (
    build_engine,
    build_workload,
    geomean,
    run_one,
    topology_for,
    workload_pages,
)
from repro.workloads import BENCHMARKS


class TestConfig:
    def test_ratio_splits_capacity(self):
        cfg = ExperimentConfig(num_pages=3000, ratio=(1, 2))
        (fast_spec, fast_pages), (slow_spec, slow_pages) = topology_for(3000, cfg)
        assert (fast_spec, slow_spec) == (cfg.fast_spec, cfg.slow_spec)
        assert fast_pages == 1000
        assert slow_pages > 2000  # slack included

    def test_with_ratio(self):
        cfg = DEFAULT_CONFIG.with_ratio(1, 8)
        assert cfg.ratio == (1, 8)
        assert cfg.num_pages == DEFAULT_CONFIG.num_pages

    def test_engine_config_carries_quota_and_scaled_costs(self):
        cfg = SMOKE_CONFIG
        engine_cfg = cfg.engine_config()
        assert engine_cfg.migration.quota_bytes_per_s == cfg.quota_bytes_per_s
        assert engine_cfg.migration.page_copy_ns == pytest.approx(2000.0 * cfg.overhead_scale)

    def test_neoprof_config_scaled_mmio(self):
        cfg = SMOKE_CONFIG
        assert cfg.neoprof_config().mmio_latency_ns == pytest.approx(500.0 * cfg.overhead_scale)

    def test_every_benchmark_has_rss_factor(self):
        for name in BENCHMARKS:
            assert name in WORKLOAD_RSS_FACTOR


class TestRunner:
    def test_workload_pages_scaled(self):
        assert workload_pages("bwaves", SMOKE_CONFIG) > workload_pages("gups", SMOKE_CONFIG)

    def test_build_workload_respects_config(self):
        wl = build_workload("gups", SMOKE_CONFIG)
        assert wl.total_batches == SMOKE_CONFIG.batches
        assert wl.batch_size == SMOKE_CONFIG.batch_size

    def test_prefill_fills_everything(self):
        """An engine is built warmed up: every page is already mapped."""
        wl = build_workload("gups", SMOKE_CONFIG)
        engine = build_engine(wl, "first-touch", SMOKE_CONFIG)
        assert engine.page_table.unmapped_pages(np.arange(wl.num_pages)).size == 0

    def test_prefill_is_hotness_agnostic(self):
        """The warm-up permutation must not favour low page numbers."""
        wl = build_workload("gups", SMOKE_CONFIG)
        engine = build_engine(wl, "first-touch", SMOKE_CONFIG)
        fast_pages = engine.page_table.pages_on_node(0)
        # if allocation were ascending, every fast page would be < fast
        # capacity; a permutation spreads them across the space
        assert fast_pages.max() > wl.num_pages // 2

    def test_run_one_drops_engine_by_default(self):
        """Sweeps must not pin whole machine models in their reports."""
        report = run_one("gups", "first-touch", SMOKE_CONFIG)
        assert report.workload == "gups"
        assert report.policy == "first-touch"
        assert "engine" not in report.annotations
        assert "policy_object" not in report.annotations

    def test_run_one_keep_engine_opts_in(self):
        report = run_one("gups", "first-touch", SMOKE_CONFIG, keep_engine=True)
        engine = report.annotations["engine"]
        assert engine.report is report
        assert report.annotations["policy_object"] is engine.policy

    @pytest.mark.parametrize("policy", ["neomem", "pebs", "tpp", "memtis"])
    def test_run_one_each_policy_smoke(self, policy):
        report = run_one("silo", policy, SMOKE_CONFIG)
        assert report.total_time_ns > 0
        assert report.total_accesses == SMOKE_CONFIG.batches * SMOKE_CONFIG.batch_size

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([1, 0])
        with pytest.raises(ValueError):
            geomean([])


class TestDeterminism:
    def test_same_config_same_result(self):
        a = run_one("gups", "neomem", SMOKE_CONFIG)
        b = run_one("gups", "neomem", SMOKE_CONFIG)
        assert a.total_time_ns == b.total_time_ns
        assert a.total_promoted_pages == b.total_promoted_pages
