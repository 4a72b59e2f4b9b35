"""Scaled-down machine and experiment configuration.

The paper's testbed (Table III): 128 GB host DDR5, 16 GB FPGA CXL
memory, 60 MB LLC, benchmarks with 10.3-19.7 GB RSS, runtimes of
minutes.  The simulator scales *capacities and run lengths* down by
``SCALE`` (64x) while keeping every ratio that drives the results:

* fast:slow capacity ratio (1:2 default; 1:4, 1:8 for Fig. 12),
* hot-set : fast-tier size ratio per workload,
* LLC : RSS ratio,
* tier latency ratios (unscaled — latencies are physical),
* policy interval : epoch duration ratio (intervals shrink with the
  run length so the daemon fires the same number of times per run as
  it would per real-machine run).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.daemon import NeoMemConfig
from repro.core.neoprof.device import NeoProfConfig
from repro.core.policy import ThresholdPolicyConfig
from repro.memsim.engine import EngineConfig
from repro.memsim.migration import MigrationConfig
from repro.memsim.tiers import CXL_DRAM_PROTO, DDR5_LOCAL, TierSpec

#: global capacity scale-down vs the paper's machine
SCALE = 64

#: scaled LLC: 60 MB / SCALE ~ 1 MB ~ 240 pages
LLC_PAGES = 240


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated machine + run-length configuration."""

    #: fast:slow capacity ratio, written as (1, 2) for "1:2"
    ratio: tuple[int, int] = (1, 2)
    #: workload RSS in pages (scaled: ~128 MB)
    num_pages: int = 32768
    #: epochs per run
    batches: int = 48
    #: accesses per epoch
    batch_size: int = 32768
    #: slack capacity beyond the RSS on the slow tier
    slow_slack: float = 0.25
    fast_spec: TierSpec = DDR5_LOCAL
    slow_spec: TierSpec = CXL_DRAM_PROTO
    seed: int = 2024
    #: Policy cadences.  The scaled runs last tens of milliseconds of
    #: sim-time versus the paper's ~100 s, so intervals shrink with the
    #: run so each mechanism fires the same number of times per run:
    #: NeoMem migrates every epoch or two, re-thresholds every ~6
    #: epochs, clears every ~25; hint-fault scans run a few times per
    #: run; PTE scans stay ~8x rarer than NeoMem migrations, preserving
    #: the paper's cadence ordering (10 ms vs seconds).
    migration_interval_s: float = 4.0e-4
    thr_update_interval_s: float = 1.2e-3
    clear_interval_s: float = 8.0e-3
    hint_fault_scan_interval_s: float = 8.0e-4
    pte_scan_interval_s: float = 3.2e-3
    pebs_decay_interval_s: float = 8.0e-3
    #: Migration quota.  Table V's 256 MB/s moves up to ~1.6x the RSS
    #: over a real run; the scaled equivalent keeps quota x runtime /
    #: RSS constant.
    quota_bytes_per_s: float = 4.0e9
    #: Per-event host costs (page copies, faults, PEBS samples, PTE
    #: walks, MMIO round trips) are physical quantities; with run time
    #: compressed ~4000x but event *counts* compressed only ~100x, the
    #: real-world per-event numbers would dominate runtime.  Scaling
    #: them uniformly keeps every technique's cost-to-runtime ratio at
    #: its real-machine value while preserving the cost ordering
    #: between techniques.
    overhead_scale: float = 1.0 / 32.0
    #: tier residency semantics ("exclusive" or "inclusive"); see
    #: :class:`repro.memsim.migration.MigrationConfig`
    tier_mode: str = "exclusive"

    # ------------------------------------------------------------------
    def engine_config(self) -> EngineConfig:
        migration = MigrationConfig(
            quota_bytes_per_s=self.quota_bytes_per_s,
            page_copy_ns=2_000.0 * self.overhead_scale,
            huge_page_copy_ns=160_000.0 * self.overhead_scale,
            tier_mode=self.tier_mode,
        )
        return EngineConfig(llc_capacity_pages=LLC_PAGES, seed=self.seed, migration=migration)

    def neomem_config(self, **overrides) -> NeoMemConfig:
        # The percentile bounds of Algorithm 1 (Table V: 0.01 %-1.56 %)
        # govern *per-window* promotion volume; hot-set coverage
        # accumulates over the ~100 threshold windows of a real run.
        # The scaled runs fit ~8x fewer windows, so the bounds widen by
        # the same factor to keep total coverage per run constant.
        defaults = dict(
            migration_interval_s=self.migration_interval_s,
            thr_update_interval_s=self.thr_update_interval_s,
            clear_interval_s=self.clear_interval_s,
            syscall_ns_per_page=300.0 * self.overhead_scale,
            # alpha/beta are "adjustable hyper-parameters" (Table V);
            # the scaled runs' bandwidth signal is weaker than the real
            # device's, so alpha compensates and beta relaxes.
            threshold_policy=ThresholdPolicyConfig(
                p_min=0.0008, p_max=0.2, p_init=0.008, alpha=2.0, beta=0.5
            ),
        )
        defaults.update(overrides)
        return NeoMemConfig(**defaults)

    def neoprof_config(self, **overrides) -> NeoProfConfig:
        # sketch width scaled with the RSS: 512K counters for 128M pages
        # on the real device; 64K counters comfortably cover 32K pages
        defaults = dict(
            sketch_width=64 * 1024,
            initial_threshold=32,
            mmio_latency_ns=500.0 * self.overhead_scale,
        )
        defaults.update(overrides)
        return NeoProfConfig(**defaults)

    def with_ratio(self, fast: int, slow: int) -> "ExperimentConfig":
        return replace(self, ratio=(fast, slow))

    def with_tier_mode(self, tier_mode: str) -> "ExperimentConfig":
        return replace(self, tier_mode=tier_mode)


#: the default configuration used by Figs. 11/13/14/15/17
DEFAULT_CONFIG = ExperimentConfig()

#: a smaller configuration for quick tests and CI
SMOKE_CONFIG = ExperimentConfig(num_pages=8192, batches=12, batch_size=8192)

#: per-workload RSS scale relative to config.num_pages, mirroring the
#: paper's 10.3-19.7 GB spread
WORKLOAD_RSS_FACTOR = {
    "pagerank": 1.00,
    "xsbench": 1.25,
    "silo": 0.90,
    "bwaves": 1.50,
    "roms": 1.40,
    "btree": 1.10,
    "gups": 0.80,
    "deathstarbench": 1.00,
    "redis": 0.90,
    "kvcache": 1.25,
}
