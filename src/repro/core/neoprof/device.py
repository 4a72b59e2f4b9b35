"""Assembled NeoProf device (Fig. 6 block diagram).

``NeoProfDevice`` wires together the Page Monitor (request snooping),
State Monitor (bandwidth counters), NeoProf Core (sketch-based hot-page
detector + histogram unit) and the MMIO register file.  The simulation
engine calls :meth:`snoop` with the slow-tier miss stream each epoch —
the requests that would arrive on the CXL channel, per distinct page —
and the driver talks to :meth:`mmio_read` / :meth:`mmio_write`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.neoprof.detector import HotPageDetector
from repro.core.neoprof.histogram import HistogramSnapshot, HistogramUnit
from repro.core.neoprof.mmio import MmioError, NeoProfCommand, decode_offset, require_direction
from repro.core.neoprof.sketch import CountMinSketch
from repro.core.neoprof.state_monitor import StateMonitor


@dataclass(frozen=True)
class NeoProfConfig:
    """Hardware parameters (Table IV defaults)."""

    sketch_width: int = 512 * 1024
    sketch_depth: int = 2
    counter_bits: int = 16
    addr_bits: int = 32
    hot_buffer_entries: int = 16 * 1024
    histogram_bins: int = 64
    initial_threshold: int = 64
    clock_hz: float = 400e6
    #: one CXL MMIO round trip as seen by the host CPU (ns).
    mmio_latency_ns: float = 500.0


class NeoProfDevice:
    """The device-side profiler, as seen from both ports.

    * Data-path port: :meth:`snoop` (called by the memory system).
    * Control port: :meth:`mmio_read` / :meth:`mmio_write` (the driver).

    ``num_pages``, the page space the device serves, lets its sketch
    read pages from a slot table (:class:`CountMinSketch`).

    The device tracks ``mmio_time_ns`` — cumulative host-visible stall
    from MMIO round trips — which the driver charges as CPU overhead.
    """

    def __init__(self, num_pages: int, config: NeoProfConfig | None = None) -> None:
        self.config = config or NeoProfConfig()
        sketch = CountMinSketch(
            width=self.config.sketch_width,
            depth=self.config.sketch_depth,
            counter_bits=self.config.counter_bits,
            addr_bits=self.config.addr_bits,
            num_pages=num_pages,
        )
        self.detector = HotPageDetector(
            sketch,
            threshold=self.config.initial_threshold,
            buffer_entries=self.config.hot_buffer_entries,
        )
        self.state_monitor = StateMonitor(clock_hz=self.config.clock_hz)
        self.histogram_unit = HistogramUnit(self.config.histogram_bins)
        self._histogram: HistogramSnapshot | None = None
        self._hist_read_cursor = 0
        self.mmio_time_ns = 0.0
        self.snooped_requests = 0

    # ------------------------------------------------------------------
    # data-path port
    # ------------------------------------------------------------------
    def snoop(
        self, pages: np.ndarray, requests: np.ndarray, writes: np.ndarray, elapsed_ns: float
    ) -> None:
        """Observe one epoch of CXL.mem requests, per distinct page.

        Sketch counters and state-monitor bytes only add up, so at epoch
        granularity a page's request count stands for its requests.

        Args:
            pages: Distinct device-side page addresses.
            requests: Requests per page this epoch.
            writes: Write requests per page this epoch.
            elapsed_ns: Wall time the epoch spanned (for the sampling
                window of the state monitor).
        """
        if not pages.shape == requests.shape == writes.shape:
            raise ValueError("pages, requests and writes must match")
        total, written = int(requests.sum()), int(writes.sum())
        self.snooped_requests += total
        self.state_monitor.record((total - written) * 64, written * 64, elapsed_ns)
        self.detector.observe(pages, requests)

    # ------------------------------------------------------------------
    # control port
    # ------------------------------------------------------------------
    def mmio_write(self, offset: int, value: int) -> None:
        """Host MMIO write; dispatches Table II write commands."""
        command = decode_offset(offset)
        require_direction(command, is_write=True)
        self.mmio_time_ns += self.config.mmio_latency_ns
        if command is NeoProfCommand.RESET:
            self.detector.clear()
            self.state_monitor.reset()
            self._histogram = None
            self._hist_read_cursor = 0
        elif command is NeoProfCommand.SET_THRESHOLD:
            self.detector.set_threshold(int(value))
        elif command is NeoProfCommand.SET_HIST_EN:
            # the lane's valid counters are its non-zero ones, which the
            # histogram bins without filtering them again
            sketch = self.detector.sketch
            self._histogram = self.histogram_unit._bin(sketch.lane_valid_counters(0), sketch.width)
            self._hist_read_cursor = 0

    def mmio_read(self, offset: int) -> int:
        """Host MMIO read; dispatches Table II read commands."""
        command = decode_offset(offset)
        require_direction(command, is_write=False)
        self.mmio_time_ns += self.config.mmio_latency_ns
        if command is NeoProfCommand.GET_NR_HOT_PAGE:
            return self.detector.pending
        if command is NeoProfCommand.GET_HOT_PAGE:
            drained = self.detector.drain(1)
            return int(drained[0]) if drained.size else -1
        if command is NeoProfCommand.GET_NR_SAMPLE:
            return self.state_monitor.sample().total_cycles
        if command is NeoProfCommand.GET_RD_CNT:
            return self.state_monitor.sample().read_cycles
        if command is NeoProfCommand.GET_WR_CNT:
            return self.state_monitor.sample().write_cycles
        if command is NeoProfCommand.GET_NR_HIST_BIN:
            return 0 if self._histogram is None else len(self._histogram.counts)
        if command is NeoProfCommand.GET_HIST:
            if self._histogram is None:
                raise MmioError("histogram not computed; write SetHistEn first")
            if self._hist_read_cursor >= len(self._histogram.counts):
                raise MmioError("histogram read past the last bin")
            value = int(self._histogram.counts[self._hist_read_cursor])
            self._hist_read_cursor += 1
            return value
        raise MmioError(f"unhandled command {command.name}")  # pragma: no cover

    def read_hist_bins(self, count: int) -> np.ndarray:
        """Batched ``GetHist``: read ``count`` bins from the cursor.

        Charges ``count`` MMIO round trips of host stall, exactly like
        ``count`` individual ``mmio_read(GET_HIST)`` calls — the batching
        only removes the per-bin simulator dispatch.
        """
        if self._histogram is None:
            raise MmioError("histogram not computed; write SetHistEn first")
        count = int(count)
        if self._hist_read_cursor + count > len(self._histogram.counts):
            raise MmioError("histogram read past the last bin")
        start = self._hist_read_cursor
        self._hist_read_cursor += count
        self.mmio_time_ns += self.config.mmio_latency_ns * count
        return self._histogram.counts[start : start + count]

    def drain_hot_pages(self, count: int) -> np.ndarray:
        """Batched ``GetHotPage``: drain up to ``count`` FIFO entries.

        Each drained entry is one MMIO round trip on the wire, so the
        host-visible stall charged is identical to ``count`` individual
        ``mmio_read(GET_HOT_PAGE)`` calls — the batching only removes the
        per-entry simulator dispatch, not the modelled latency.
        """
        count = min(int(count), self.detector.pending)
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        self.mmio_time_ns += self.config.mmio_latency_ns * count
        return self.detector.drain(count)

    # ------------------------------------------------------------------
    @property
    def last_histogram(self) -> HistogramSnapshot | None:
        """Device-held histogram (simulation-side convenience view)."""
        return self._histogram

    def drain_mmio_time(self) -> float:
        """Return and clear the accumulated host-visible MMIO stall."""
        t = self.mmio_time_ns
        self.mmio_time_ns = 0.0
        return t
