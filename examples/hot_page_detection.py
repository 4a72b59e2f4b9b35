#!/usr/bin/env python
"""Using the NeoProf device model standalone, the way a driver would.

Builds a NeoProf device, streams a synthetic CXL.mem request mix at it
(a small hot set inside a sea of cold pages), then talks to it through
the Table II MMIO command interface: programs a threshold, drains the
hot-page FIFO, reads the bandwidth counters, and pulls the histogram to
estimate the sketch's tight error bound.

Usage::

    python examples/hot_page_detection.py
"""

import numpy as np

from repro.core.driver import NeoProfDriver
from repro.core.neoprof import NeoProfConfig, NeoProfDevice, tight_error_bound
from repro.memsim.pageset import distinct_counts


def main() -> None:
    device = NeoProfDevice(8192, NeoProfConfig(sketch_width=16384, initial_threshold=64))
    driver = NeoProfDriver(device)
    rng = np.random.default_rng(0)

    hot_pages = np.arange(200, 232)  # 32 genuinely hot pages
    print("streaming 10 epochs of CXL.mem requests (32 hot pages of 8192)...")
    for _ in range(10):
        hot = rng.choice(hot_pages, size=3000)
        cold = rng.integers(0, 8192, size=1000)
        pages = np.concatenate([hot, cold])
        rng.shuffle(pages)
        is_write = rng.random(pages.size) < 0.3
        # the device takes an epoch's requests per distinct page
        distinct, requests = distinct_counts(pages)
        writes = np.bincount(pages[is_write], minlength=8192)[distinct]
        device.snoop(distinct, requests, writes, elapsed_ns=100_000)

    driver.set_threshold(100)
    detected = driver.read_hot_pages()
    true_positives = np.isin(detected, hot_pages).sum()
    print(f"hot pages reported : {detected.size} "
          f"({true_positives} of {hot_pages.size} true hot pages)")

    state = driver.read_state()
    print(f"bandwidth util     : {state.bandwidth_utilization:.2%} "
          f"(read fraction {state.read_fraction:.2f})")

    histogram = driver.read_histogram()
    error = tight_error_bound(histogram, depth=device.config.sketch_depth)
    print(f"sketch error bound : {error:.1f} counts "
          f"(threshold was 100; bound << threshold means trustworthy)")

    overhead_ns = driver.drain_cpu_overhead_ns()
    print(f"host CPU time spent: {overhead_ns / 1e3:.1f} us of MMIO round trips")


if __name__ == "__main__":
    main()
