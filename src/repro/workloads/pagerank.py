"""Page-Rank (GAP benchmark suite) — the paper's flagship analysis case.

The Fig. 14 study runs Page-Rank "processing a graph through sixteen
iterations" with two visible phases:

* **build**: the graph is generated and its CSR arrays written — a
  streaming, write-heavy sweep over the whole footprint;
* **process**: sixteen pull-style iterations — per-iteration sweeps of
  the rank arrays plus power-law-skewed reads of neighbour ranks (high-
  degree vertices' pages are hot).

The generator keeps per-iteration batch boundaries so experiments can
time individual iterations exactly as Fig. 14-(a) plots them.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import TraceWorkload
from repro.workloads.distributions import bounded_zipf, strided_sweep


class PageRankWorkload(TraceWorkload):
    """Build phase followed by ``iterations`` power-law iterations.

    Args:
        iterations: Processing iterations (Fig. 14 uses 16).
        batches_per_iteration: Epoch granularity inside an iteration.
        build_batches: Epochs of the graph-build phase.
        zipf_exponent: Degree-skew of neighbour accesses.
    """

    name = "pagerank"

    def __init__(
        self,
        num_pages: int = 131072,
        iterations: int = 16,
        batches_per_iteration: int = 4,
        build_batches: int = 8,
        batch_size: int = 1 << 16,
        zipf_exponent: float = 1.1,
        total_batches: int | None = None,
    ) -> None:
        full_run = build_batches + iterations * batches_per_iteration
        total = full_run if total_batches is None else min(total_batches, full_run)
        super().__init__(num_pages, total, batch_size, write_fraction=0.3)
        self.iterations = int(iterations)
        self.batches_per_iteration = int(batches_per_iteration)
        self.build_batches = int(build_batches)
        self.zipf_exponent = float(zipf_exponent)
        # layout: [rank arrays | graph structure]
        self.rank_pages = max(1, num_pages // 16)

    # ------------------------------------------------------------------
    def phase_of(self, batch_index: int) -> str:
        return "build" if batch_index < self.build_batches else "process"

    def batches_of_iteration(self, iteration: int) -> range:
        start = self.build_batches + iteration * self.batches_per_iteration
        return range(start, start + self.batches_per_iteration)

    # ------------------------------------------------------------------
    def generate(self, batch_index: int, rng: np.random.Generator) -> np.ndarray:
        if self.phase_of(batch_index) == "build":
            # streaming write of the graph arrays: sweep a slice of the
            # structure region each build batch
            span = self.num_pages - self.rank_pages
            slice_pages = max(1, span // self.build_batches)
            start = self.rank_pages + (batch_index * slice_pages) % span
            end = min(start + slice_pages, self.num_pages)
            reps = max(1, self.batch_size // (end - start))
            sweep = strided_sweep(start, end - start, reps)
            return sweep[: self.batch_size]

        # processing iteration: rank-array sweep + skewed neighbour reads
        n_sweep = self.batch_size // 4
        reps = max(1, n_sweep // self.rank_pages)
        sweep = strided_sweep(0, min(self.rank_pages, n_sweep), reps)[:n_sweep]
        n_neighbour = self.batch_size - sweep.size
        structure_span = self.num_pages - self.rank_pages
        neighbours = self.rank_pages + bounded_zipf(
            rng, structure_span, n_neighbour, self.zipf_exponent
        )
        out = np.concatenate([sweep, neighbours])
        rng.shuffle(out)
        return out
