"""Integration tests: NeoMem daemon driving the simulation engine."""

import numpy as np

from repro.core.daemon import NeoMemConfig, NeoMemDaemon
from repro.core.neoprof.device import NeoProfConfig
from repro.memsim.engine import EngineConfig, SimulationEngine
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL
from tests.memsim.test_engine import start_hot_set_on_slow_tier


class SkewedWorkload:
    """90 % of accesses to a small hot set, 10 % uniform (GUPS-like)."""

    name = "skewed"

    def __init__(self, num_pages=4000, hot_pages=80, batches=30, batch_size=8192):
        self.num_pages = num_pages
        self.hot_pages = hot_pages
        self.batches = batches
        self.batch_size = batch_size
        self.emitted = 0

    def next_batch(self, rng):
        if self.emitted >= self.batches:
            return None
        self.emitted += 1
        n_hot = int(self.batch_size * 0.9)
        hot = rng.integers(0, self.hot_pages, size=n_hot)
        cold = rng.integers(0, self.num_pages, size=self.batch_size - n_hot)
        pages = np.concatenate([hot, cold])
        rng.shuffle(pages)
        return pages, rng.random(pages.size) < 0.25


def build(daemon=None, fast=200, slow=8000, num_pages=4000, batches=30, **daemon_kwargs):
    """Engine where the hot set starts on the slow tier (cold fast tier)."""
    if daemon is None:
        config_kwargs = dict(
            migration_interval_s=1e-5,
            thr_update_interval_s=1e-4,
            clear_interval_s=5e-4,
        )
        config_kwargs.update(daemon_kwargs)
        config = NeoMemConfig(**config_kwargs)
        daemon = NeoMemDaemon(
            num_pages, config, NeoProfConfig(sketch_width=16384, initial_threshold=16)
        )
    workload = SkewedWorkload(num_pages=num_pages, batches=batches)
    engine = SimulationEngine(
        workload,
        [(DDR5_LOCAL, fast), (CXL_DRAM_PROTO, slow)],
        daemon,
        EngineConfig(llc_capacity_pages=24, seed=11),
    )
    start_hot_set_on_slow_tier(engine, workload.hot_pages)
    return engine, daemon


class TestDaemonLoop:
    def test_daemon_promotes_hot_pages(self):
        engine, daemon = build()
        report = engine.run()
        assert report.total_promoted_pages > 0
        # the hot set should end up on the fast node
        hot_nodes = engine.page_table.nodes_of(np.arange(80))
        assert (hot_nodes == 0).mean() > 0.5

    def test_daemon_improves_performance_over_no_tiering(self):
        class Null:
            name = "null"

            def on_epoch(self, view):
                return 0.0

        null_engine, _ = build(daemon=Null())
        neomem_engine, _ = build()
        null_report = null_engine.run()
        neo_report = neomem_engine.run()
        assert neo_report.total_time_ns < null_report.total_time_ns

    def test_threshold_updates_recorded(self):
        engine, daemon = build()
        engine.run()
        assert len(daemon.threshold_timeline) > 1
        assert all(theta >= 1 for _, theta in daemon.threshold_timeline)

    def test_bandwidth_telemetry_recorded(self):
        engine, daemon = build()
        engine.run()
        assert len(daemon.bandwidth_timeline) > 0
        for _, util, read_frac in daemon.bandwidth_timeline:
            assert 0.0 <= util <= 1.0
            assert 0.0 <= read_frac <= 1.0

    def test_histogram_timeline_recorded(self):
        engine, daemon = build()
        engine.run()
        assert len(daemon.histogram_timeline) > 0
        _, counts = daemon.histogram_timeline[0]
        assert counts.sum() == daemon.device.config.sketch_width

    def test_overhead_is_small(self):
        """Sec. VI-D: NeoMem profiling overhead must be well under 1 %.

        Uses interval/epoch proportions matching the paper's defaults
        (migration every ~10 epochs, threshold updates every ~100), not
        the compressed intervals the functional tests use.
        """
        engine, daemon = build(
            batches=120,
            migration_interval_s=3e-3,
            thr_update_interval_s=3e-2,
            clear_interval_s=1.5e-1,
        )
        report = engine.run()
        overhead_ratio = report.total_profiling_overhead_ns / report.total_time_ns
        assert overhead_ratio < 0.01

    def test_periodic_reset_happens(self):
        engine, daemon = build()
        engine.run()
        # After the periodic clears, total_updates must be far below the
        # total number of snooped requests.
        assert daemon.device.detector.sketch.total_updates < daemon.device.snooped_requests

    def test_fixed_threshold_variant(self):
        config = NeoMemConfig(
            migration_interval_s=1e-5,
            thr_update_interval_s=1e-4,
            clear_interval_s=5e-4,
        )
        daemon = NeoMemDaemon(
            4000,
            config,
            NeoProfConfig(sketch_width=16384),
            fixed_threshold=32,
        )
        engine, _ = build(daemon=daemon)
        engine.run()
        assert daemon.name == "neomem-fixed-32"
        assert all(theta == 32 for _, theta in daemon.threshold_timeline)

    def test_watermark_demotion_keeps_headroom(self):
        engine, daemon = build(fast=120)
        engine.run()
        fast = engine.topology.fast_node.tier
        # free headroom respected (within one epoch's churn)
        assert fast.free_pages >= 0
        assert engine.report.total_demoted_pages > 0

