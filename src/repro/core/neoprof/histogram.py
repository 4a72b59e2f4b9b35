"""Histogram unit and tight error-bound estimation (Fig. 9).

Reading and sorting a whole sketch row over MMIO would monopolize the
CXL channel, so NeoProf computes a 64-bin histogram of the first row's
counters on-device; the host reads 64 values and derives

* the access-frequency distribution (drives Algorithm 1's quantile
  threshold), and
* the tight error bound of Chen et al.: the
  ``(W * delta^(1/D))``-th largest counter of a row upper-bounds the
  sketch over-estimate with probability ``1 - delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class HistogramSnapshot:
    """One histogram readout: bin edges and occupancy counts.

    ``edges`` has ``len(counts) + 1`` entries; bin ``i`` covers
    ``[edges[i], edges[i+1])``, except the last bin which is inclusive.
    """

    edges: np.ndarray
    counts: np.ndarray

    @cached_property
    def total(self) -> int:
        """Counters binned: summed once, on the first read."""
        return int(self.counts.sum())

    # ------------------------------------------------------------------
    def quantile(self, fraction: float) -> float:
        """QF(fraction): value below which ``fraction`` of counters fall.

        Mirrors the paper's quantile function: ``QF(x) = y`` means a
        fraction ``x`` of pages have fewer than ``y`` accesses.  The
        value is resolved to the upper edge of the bin where the
        cumulative count crosses the target.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.total == 0:
            return 0.0
        target = fraction * self.total
        cumulative = np.cumsum(self.counts)
        idx = int(cumulative.searchsorted(target, side="left"))
        idx = min(idx, len(self.counts) - 1)
        return float(self.edges[idx + 1])

    def descending_percentile(self, fraction: float) -> float:
        """Value of the ``fraction``-th largest counter (0 < fraction <= 1)."""
        return self.quantile(1.0 - fraction)


class HistogramUnit:
    """The on-device 64-bin histogram engine.

    Bin width is chosen per snapshot as a power of two so the hardware
    can bin counters with a shift — a detail that also keeps low-count
    resolution high when the sketch is lightly loaded.
    """

    def __init__(self, num_bins: int = 64) -> None:
        if num_bins < 2:
            raise ValueError("need at least two bins")
        self.num_bins = int(num_bins)
        self.computations = 0

    def compute(self, counters: np.ndarray) -> HistogramSnapshot:
        """Histogram one sketch row (valid-aware counter snapshot).

        Bin 0 holds exactly the zero-valued (untouched/invalid) entries
        — the hardware identifies them from the valid bits for free —
        so a mostly-empty sketch row reports a near-zero error bound
        instead of one inflated to the bin width.  Bins 1..N-1 cover
        ``[1, max]`` with a power-of-two width (a shift in hardware).
        """
        return self.compute_sparse(counters, np.asarray(counters).size)

    def compute_sparse(self, values: np.ndarray, total_entries: int) -> HistogramSnapshot:
        """Histogram a row given only its potentially-nonzero counters.

        ``values`` holds the counters of the row's *valid* entries (any
        order); the remaining ``total_entries - len(values)`` entries are
        implicitly zero.  Produces a snapshot identical to
        :meth:`compute` over the full ``total_entries``-sized row — bin 0
        counts every zero whether passed explicitly or implied — while
        letting a lightly loaded sketch skip the full-row scan.
        """
        counters = np.asarray(values)
        if counters.dtype.kind not in "iu":
            counters = counters.astype(np.int64)
        return self._bin(counters[counters > 0], total_entries)

    def _bin(self, nonzero: np.ndarray, total_entries: int) -> HistogramSnapshot:
        """The snapshot of a row's ``nonzero`` counters, positive
        integers, plus ``total_entries - nonzero.size`` zeros."""
        self.computations += 1
        max_value = int(nonzero.max(initial=0))
        # smallest power-of-two width such that bins 1..N-1 reach max
        width = 1
        while 1 + width * (self.num_bins - 1) <= max_value:
            width <<= 1
        edges = np.empty(self.num_bins + 1, dtype=np.int64)
        edges[0] = 0
        edges[1:] = 1 + np.arange(self.num_bins, dtype=np.int64) * width
        # Bin with the shift directly (the hardware's actual datapath)
        # instead of np.histogram, which sorts the whole row: non-zero
        # counter c lands in bin (c - 1) >> log2(width) + 1, and the
        # chosen width guarantees the top bin is never exceeded.
        shift = width.bit_length() - 1
        counts = np.bincount((nonzero - 1) >> shift, minlength=self.num_bins - 1)
        zeros = int(total_entries) - nonzero.size
        counts = np.concatenate(([zeros], counts)).astype(np.int64)
        return HistogramSnapshot(edges=edges, counts=counts)


def tight_error_bound(hist: HistogramSnapshot, depth: int, delta: float = 0.25) -> float:
    """Chen et al. near-optimal error bound from a histogram.

    The bound ``e`` is the ``(W * delta^(1/D))``-th largest counter of a
    sketch row; with probability ``1 - delta``,
    ``a_hat(P) <= a(P) + e``.  With ``D = 2`` and ``delta = 0.25`` this
    is the row median, the example the paper gives.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    fraction = delta ** (1.0 / depth)
    return hist.descending_percentile(fraction)


def loose_error_bound(epsilon: float, total_updates: int) -> float:
    """The classical worst-case CM bound ``eps * N`` (Eq. 3).

    Kept for comparison benches; the paper calls it too loose for
    practical thresholds.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return epsilon * max(0, int(total_updates))
