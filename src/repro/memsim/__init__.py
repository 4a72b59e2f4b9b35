"""Tiered-memory system simulator substrate.

This subpackage models the machine the NeoMem paper prototypes on an FPGA
platform: a host CPU with a cache hierarchy and TLB, a fast CPU-attached
DDR tier, and one or more slow CXL-attached tiers, all exposed to a
software layer through page tables, NUMA nodes, and a page-migration
engine.  The :class:`~repro.memsim.engine.SimulationEngine` advances the
system in epochs and produces the timing and traffic metrics that the
paper's evaluation section reports.
"""

from repro.memsim.address import (
    PAGE_SHIFT,
    PAGE_SIZE,
    HUGE_PAGE_SHIFT,
    HUGE_PAGE_SIZE,
    CACHE_LINE_SIZE,
)
from repro.memsim.tiers import (
    CXL_DRAM_IDEAL,
    CXL_DRAM_PROTO,
    CXL_PCM,
    DDR5_LOCAL,
    MemoryTier,
    TierSpec,
)
from repro.memsim.cache import Cache, CacheHierarchy, CacheStats
from repro.memsim.cachefilter import PageCacheFilter
from repro.memsim.tlb import TLB
from repro.memsim.page_table import PageTable
from repro.memsim.numa import NumaNode, NumaTopology
from repro.memsim.lru2q import Lru2Q
from repro.memsim.migration import MigrationConfig, MigrationEngine, MigrationStats
from repro.memsim.metrics import EpochMetrics, SimulationReport
from repro.memsim.engine import SimulationEngine, EngineConfig

__all__ = [
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "HUGE_PAGE_SHIFT",
    "HUGE_PAGE_SIZE",
    "CACHE_LINE_SIZE",
    "MemoryTier",
    "TierSpec",
    "DDR5_LOCAL",
    "CXL_DRAM_PROTO",
    "CXL_DRAM_IDEAL",
    "CXL_PCM",
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "PageCacheFilter",
    "TLB",
    "PageTable",
    "NumaNode",
    "NumaTopology",
    "Lru2Q",
    "MigrationConfig",
    "MigrationEngine",
    "MigrationStats",
    "EpochMetrics",
    "SimulationReport",
    "SimulationEngine",
    "EngineConfig",
]
