"""Table/timeline formatting and replica statistics for the harnesses.

Every ``benchmarks/test_figXX.py`` prints the same rows/series the
paper's figure or table reports, through these helpers, so the bench
output is directly comparable to the publication.

The replica-statistics half (:class:`ReplicaStats`,
:func:`replica_stats`) reduces repeated measurements of one quantity to
mean / sample-stddev / 95 % confidence intervals; the
``BENCH_sweep.json`` regression gate
(:mod:`repro.experiments.trajectory`) builds its band from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_fmt: str = "{:.3f}",
) -> str:
    """Render an aligned ASCII table."""
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_fmt.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float], x_label: str = "x", y_label: str = "y"
) -> str:
    """Render a (x, y) series as compact aligned pairs."""
    pairs = "  ".join(f"({x:g}, {y:.3g})" for x, y in zip(xs, ys))
    return f"{name} [{x_label} -> {y_label}]: {pairs}"


# ----------------------------------------------------------------------
# replica statistics
# ----------------------------------------------------------------------
#: two-sided 95 % Student-t critical values for df 1..30, then banded
#: upper bounds (each band reports its smallest-df value, so intervals
#: are conservative); the asymptotic normal value takes over past
#: df=120, where the error is < 1 %
# fmt: off
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)
# fmt: on
_T95_BANDS = ((40, 2.042), (60, 2.021), (120, 2.000))
_Z95 = 1.960


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of
    freedom (table lookup; no scipy dependency)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if df <= len(_T95):
        return _T95[df - 1]
    for cap, value in _T95_BANDS:
        if df <= cap:
            return value
    return _Z95


@dataclass(frozen=True)
class ReplicaStats:
    """Mean / spread of one quantity across replicas.

    ``ci95`` is the *half-width* of the two-sided 95 % confidence
    interval for the mean (Student-t), so an error bar is drawn as
    ``mean ± ci95``.  A single replica degenerates to its value with
    zero spread — honest, if not informative.
    """

    mean: float
    stddev: float
    ci95: float
    n: int

    @property
    def lo(self) -> float:
        return self.mean - self.ci95

    @property
    def hi(self) -> float:
        return self.mean + self.ci95

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci95:.2g} (n={self.n})"


def replica_stats(values: Iterable[float]) -> ReplicaStats:
    """Reduce one quantity's replica values to :class:`ReplicaStats`.

    Uses the sample standard deviation (ddof=1) and the Student-t
    interval — at the handful of records a regression gate compares,
    the normal approximation would understate the interval badly.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("replica_stats needs at least one value")
    mean = math.fsum(vals) / n
    if n == 1:
        return ReplicaStats(mean=mean, stddev=0.0, ci95=0.0, n=1)
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    stddev = math.sqrt(var)
    ci95 = t_critical_95(n - 1) * stddev / math.sqrt(n)
    return ReplicaStats(mean=mean, stddev=stddev, ci95=ci95, n=n)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Down-sample a series into a unicode sparkline (timeline figures)."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in values)
