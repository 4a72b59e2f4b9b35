"""Memory-tier latency and bandwidth models.

The paper characterizes three latency points (Fig. 3-a):

* host-attached DDR5: ~118 ns,
* "ideal" CXL memory assumed by prior emulation studies: 170-250 ns,
* Intel's FPGA CXL prototype: ~430 ns (~3.6x local DDR).

A :class:`TierSpec` captures those numbers plus peak bandwidth; a
:class:`MemoryTier` adds per-epoch bandwidth accounting with an
M/D/1-style queueing inflation so that saturating a tier's links raises
its effective latency — the behaviour NeoMem's policy reacts to through
the bandwidth-utilization term of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TierSpec:
    """Immutable description of one memory tier's hardware.

    Attributes:
        name: Human-readable tier name.
        read_latency_ns: Unloaded read latency seen by the CPU.
        write_latency_ns: Unloaded write latency (posted writes make this
            lower than reads on most parts).
        read_bandwidth_gbps: Peak read bandwidth in GB/s.
        write_bandwidth_gbps: Peak write bandwidth in GB/s.
    """

    name: str
    read_latency_ns: float
    write_latency_ns: float
    read_bandwidth_gbps: float
    write_bandwidth_gbps: float

    @property
    def total_bandwidth_gbps(self) -> float:
        return self.read_bandwidth_gbps + self.write_bandwidth_gbps


#: Host-attached DDR5-4800 x4 channels (Table III).
DDR5_LOCAL = TierSpec(
    name="ddr5-local",
    read_latency_ns=118.0,
    write_latency_ns=95.0,
    read_bandwidth_gbps=120.0,
    write_bandwidth_gbps=120.0,
)

#: Intel Agilex FPGA CXL prototype, dual-channel DDR4-2666 (Table III).
#: Measured FPGA CXL prototypes deliver single-digit GB/s per direction
#: (Sun et al., "Demystifying CXL Memory"), far below the raw DDR4 peak.
CXL_DRAM_PROTO = TierSpec(
    name="cxl-dram-proto",
    read_latency_ns=430.0,
    write_latency_ns=380.0,
    read_bandwidth_gbps=8.0,
    write_bandwidth_gbps=8.0,
)

#: The 170-250 ns "ideal" CXL device prior studies emulate; we take the
#: midpoint of the published range.
CXL_DRAM_IDEAL = TierSpec(
    name="cxl-dram-ideal",
    read_latency_ns=210.0,
    write_latency_ns=180.0,
    read_bandwidth_gbps=56.0,
    write_bandwidth_gbps=56.0,
)

#: A slower persistent-media CXL device (PCM-class), for the asymmetric
#: read/write experiments the paper motivates in Section III.
CXL_PCM = TierSpec(
    name="cxl-pcm",
    read_latency_ns=550.0,
    write_latency_ns=1100.0,
    read_bandwidth_gbps=12.0,
    write_bandwidth_gbps=4.0,
)


class MemoryTier:
    """A memory tier instance with capacity and bandwidth accounting.

    The tier tracks per-epoch read/write byte counts.  Effective access
    latency inflates as demanded bandwidth approaches the tier's peak:

        ``latency_eff = latency * (1 + queue_gain * rho / (1 - rho))``

    with utilization ``rho`` clamped below 1.  This mirrors how the real
    FPGA device's response time degrades when its DDR4 channels saturate.
    """

    #: Inflation gain; 0.5 keeps the knee gentle until ~80 % utilization.
    QUEUE_GAIN = 0.5
    #: Utilization is clamped here to keep latency finite.
    MAX_RHO = 0.97

    def __init__(self, spec: TierSpec, capacity_pages: int, node_id: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("tier capacity must be positive")
        self.spec = spec
        self.capacity_pages = int(capacity_pages)
        self.node_id = int(node_id)
        self.used_pages = 0
        self._epoch_read_bytes = 0
        self._epoch_write_bytes = 0
        self._epoch_seconds = 0.0
        self._peak_bytes_per_s = spec.total_bandwidth_gbps * 1e9
        #: the last finished epoch's utilization and read fraction
        self.last_utilization = 0.0
        self.last_read_fraction = 0.5
        #: read and write latency including queueing inflation from the
        #: last finished epoch's load (ns); unloaded before the first
        self.read_latency_ns = spec.read_latency_ns
        self.write_latency_ns = spec.write_latency_ns

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.used_pages

    def reserve(self, num_pages: int) -> None:
        """Account ``num_pages`` as allocated on this tier."""
        if num_pages < 0:
            raise ValueError("cannot reserve a negative number of pages")
        if self.used_pages + num_pages > self.capacity_pages:
            raise MemoryError(
                f"tier {self.spec.name!r}: requested {num_pages} pages with "
                f"only {self.free_pages} free"
            )
        self.used_pages += num_pages

    def release(self, num_pages: int) -> None:
        """Return ``num_pages`` to the tier's free pool."""
        if num_pages < 0:
            raise ValueError("cannot release a negative number of pages")
        if num_pages > self.used_pages:
            raise ValueError("releasing more pages than are in use")
        self.used_pages -= num_pages

    # ------------------------------------------------------------------
    # bandwidth accounting
    # ------------------------------------------------------------------
    def record_traffic(self, read_bytes: int, write_bytes: int, seconds: float) -> None:
        """Add one epoch's traffic against this tier."""
        self._epoch_read_bytes += int(read_bytes)
        self._epoch_write_bytes += int(write_bytes)
        self._epoch_seconds += float(seconds)

    def utilization(self) -> float:
        """Demanded bandwidth over peak bandwidth for the current epoch."""
        if self._epoch_seconds <= 0.0:
            return 0.0
        demanded = (self._epoch_read_bytes + self._epoch_write_bytes) / self._epoch_seconds
        return min(demanded / self._peak_bytes_per_s, 1.0)

    def read_fraction(self) -> float:
        """Fraction of the epoch's traffic that was reads."""
        total = self._epoch_read_bytes + self._epoch_write_bytes
        if total == 0:
            return 0.5
        return self._epoch_read_bytes / total

    def end_epoch(self) -> None:
        """Freeze utilization for queueing, inflate the latencies by it
        and clear the epoch counters."""
        self.last_utilization = self.utilization()
        self.last_read_fraction = self.read_fraction()
        self._epoch_read_bytes = 0
        self._epoch_write_bytes = 0
        self._epoch_seconds = 0.0
        rho = min(self.last_utilization, self.MAX_RHO)
        inflation = 1.0 + self.QUEUE_GAIN * rho / (1.0 - rho)
        self.read_latency_ns = self.spec.read_latency_ns * inflation
        self.write_latency_ns = self.spec.write_latency_ns * inflation

    # ------------------------------------------------------------------
    # latency model
    # ------------------------------------------------------------------
    def effective_latency_ns(self, is_write: bool = False) -> float:
        """Latency including queueing inflation from the last epoch's load."""
        return self.write_latency_ns if is_write else self.read_latency_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryTier({self.spec.name}, node={self.node_id}, "
            f"{self.used_pages}/{self.capacity_pages} pages)"
        )
