"""Tests for the assembled NeoProf device, MMIO interface and driver."""

import numpy as np
import pytest

from repro.core.driver import NeoProfDriver
from repro.core.neoprof.device import NeoProfConfig, NeoProfDevice
from repro.core.neoprof.mmio import MmioError, NeoProfCommand


def make_device(**overrides):
    defaults = dict(sketch_width=4096, hot_buffer_entries=64, initial_threshold=5)
    defaults.update(overrides)
    return NeoProfDevice(4096, NeoProfConfig(**defaults))


def snoop_reads(device, pages, requests, elapsed_ns=10_000):
    """Snoop ``requests[i]`` reads of each distinct ``pages[i]``."""
    requests = np.asarray(requests, dtype=np.int32)
    writes = np.zeros_like(requests)
    device.snoop(np.asarray(pages, dtype=np.int64), requests, writes, elapsed_ns)


def snoop_hot(device, page=7, count=10):
    snoop_reads(device, [page], [count])


class TestMmioInterface:
    def test_bad_offset_rejected(self):
        device = make_device()
        with pytest.raises(MmioError):
            device.mmio_read(0x123)

    def test_direction_enforced(self):
        device = make_device()
        with pytest.raises(MmioError):
            device.mmio_read(NeoProfCommand.RESET)
        with pytest.raises(MmioError):
            device.mmio_write(NeoProfCommand.GET_NR_HOT_PAGE, 1)

    def test_get_nr_hot_page(self):
        device = make_device()
        snoop_hot(device)
        assert device.mmio_read(NeoProfCommand.GET_NR_HOT_PAGE) == 1

    def test_get_hot_page_drains_fifo(self):
        device = make_device()
        snoop_hot(device, page=7)
        assert device.mmio_read(NeoProfCommand.GET_HOT_PAGE) == 7
        assert device.mmio_read(NeoProfCommand.GET_HOT_PAGE) == -1  # empty

    def test_set_threshold(self):
        device = make_device()
        device.mmio_write(NeoProfCommand.SET_THRESHOLD, 100)
        snoop_hot(device, count=50)
        assert device.mmio_read(NeoProfCommand.GET_NR_HOT_PAGE) == 0

    def test_reset_clears_everything(self):
        device = make_device()
        snoop_hot(device)
        device.mmio_write(NeoProfCommand.RESET, 1)
        assert device.mmio_read(NeoProfCommand.GET_NR_HOT_PAGE) == 0
        assert device.mmio_read(NeoProfCommand.GET_NR_SAMPLE) == 0

    def test_state_counters(self):
        """The state monitor counts requests: reads are requests minus
        writes, summed over the pages."""
        device = make_device()
        pages = np.arange(50, dtype=np.int64)
        requests = np.full(50, 2, dtype=np.int32)
        writes = np.zeros(50, dtype=np.int32)
        writes[:25] = 1
        device.snoop(pages, requests, writes, elapsed_ns=1_000_000)
        rd = device.mmio_read(NeoProfCommand.GET_RD_CNT)
        wr = device.mmio_read(NeoProfCommand.GET_WR_CNT)
        assert rd == 75
        assert wr == 25
        assert device.mmio_read(NeoProfCommand.GET_NR_SAMPLE) > 0

    def test_histogram_protocol(self):
        device = make_device()
        snoop_hot(device, count=20)
        device.mmio_write(NeoProfCommand.SET_HIST_EN, 1)
        nr_bins = device.mmio_read(NeoProfCommand.GET_NR_HIST_BIN)
        assert nr_bins == 64
        values = [device.mmio_read(NeoProfCommand.GET_HIST) for _ in range(nr_bins)]
        assert sum(values) == device.config.sketch_width

    def test_histogram_read_before_enable_fails(self):
        device = make_device()
        with pytest.raises(MmioError):
            device.mmio_read(NeoProfCommand.GET_HIST)

    def test_histogram_overread_fails(self):
        device = make_device()
        device.mmio_write(NeoProfCommand.SET_HIST_EN, 1)
        for _ in range(64):
            device.mmio_read(NeoProfCommand.GET_HIST)
        with pytest.raises(MmioError):
            device.mmio_read(NeoProfCommand.GET_HIST)

    def test_mmio_time_accumulates(self):
        device = make_device()
        device.mmio_write(NeoProfCommand.RESET, 1)
        device.mmio_read(NeoProfCommand.GET_NR_HOT_PAGE)
        assert device.mmio_time_ns == pytest.approx(2 * 500.0)
        assert device.drain_mmio_time() == pytest.approx(1000.0)
        assert device.mmio_time_ns == 0.0


class TestSnoop:
    def test_snoop_counts_requests(self):
        """Table I's events observed and sysfs ``nr_snooped`` read this
        counter: it counts requests, not distinct pages."""
        device = make_device()
        snoop_reads(device, np.arange(10), np.arange(1, 11))
        assert device.snooped_requests == 55
        snoop_reads(device, [3], [4])
        assert device.snooped_requests == 59

    @pytest.mark.parametrize("sizes", [(3, 2, 3), (3, 3, 2), (2, 3, 3)])
    def test_snoop_shape_mismatch(self, sizes):
        device = make_device()
        pages, requests, writes = (np.ones(n, dtype=np.int64) for n in sizes)
        with pytest.raises(ValueError):
            device.snoop(pages, requests, writes, 1000)
        assert device.snooped_requests == 0


class TestDriver:
    def test_read_hot_pages(self):
        device = make_device()
        driver = NeoProfDriver(device)
        snoop_hot(device, page=3)
        snoop_hot(device, page=9)
        pages = driver.read_hot_pages()
        assert sorted(pages.tolist()) == [3, 9]

    def test_read_hot_pages_limit(self):
        device = make_device(initial_threshold=1)
        driver = NeoProfDriver(device)
        for p in range(5):
            snoop_hot(device, page=p, count=3)
        assert driver.read_hot_pages(max_pages=2).size == 2

    def test_read_state(self):
        device = make_device()
        driver = NeoProfDriver(device)
        ones = np.ones(40, dtype=np.int32)
        device.snoop(np.arange(40), ones, ones, 100_000)
        state = driver.read_state()
        assert state.write_cycles == 40
        assert state.read_cycles == 0

    def test_read_histogram(self):
        device = make_device()
        driver = NeoProfDriver(device)
        snoop_hot(device)
        snap = driver.read_histogram()
        assert snap.total == device.config.sketch_width

    def test_reset_and_threshold(self):
        device = make_device()
        driver = NeoProfDriver(device)
        driver.set_threshold(3)
        assert device.detector.threshold == 3
        snoop_hot(device, count=5)
        driver.reset()
        assert device.detector.pending == 0

    def test_overhead_accounting(self):
        device = make_device()
        driver = NeoProfDriver(device)
        driver.reset()
        overhead = driver.drain_cpu_overhead_ns()
        assert overhead == pytest.approx(500.0)
        assert driver.drain_cpu_overhead_ns() == 0.0

    def test_histogram_mmio_cost_is_bounded(self):
        """Reading 64 bins must beat reading 4096 raw counters (Fig. 9)."""
        device = make_device()
        driver = NeoProfDriver(device)
        driver.drain_cpu_overhead_ns()
        driver.read_histogram()
        cost = driver.drain_cpu_overhead_ns()
        raw_cost = device.config.sketch_width * device.config.mmio_latency_ns
        assert cost < raw_cost / 10
