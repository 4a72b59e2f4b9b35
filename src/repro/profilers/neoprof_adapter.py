"""NeoProf exposed through the common Profiler interface.

Used by the Fig. 16 convergence study and the Table I comparison, where
all four techniques are driven identically.  The adapter owns a device
and driver; profiling itself costs zero host CPU (the hardware snoops),
and the only charged time is MMIO traffic when candidates are drained.
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import NeoProfDriver
from repro.core.neoprof.device import NeoProfConfig, NeoProfDevice
from repro.profilers.base import Profiler


class NeoProfProfiler(Profiler):
    """Device-side profiling behind the Profiler interface."""

    name = "neoprof"

    def __init__(self, num_pages: int, device_config: NeoProfConfig | None = None) -> None:
        self.device = NeoProfDevice(num_pages, device_config)
        self.driver = NeoProfDriver(self.device)
        self._unbilled_ns = 0.0

    def observe(self, view) -> float:
        self.device.snoop(*view.slow_miss_stream(), view.duration_ns)
        # Snooping is free for the host; bill any MMIO time accrued by
        # candidate drains since the previous epoch.
        overhead = self._unbilled_ns + self.driver.drain_cpu_overhead_ns()
        self._unbilled_ns = 0.0
        return overhead

    def hot_candidates(self) -> np.ndarray:
        """Drain the device FIFO; MMIO time is billed at the next epoch."""
        pages = self.driver.read_hot_pages()
        self._unbilled_ns += self.driver.drain_cpu_overhead_ns()
        return pages
