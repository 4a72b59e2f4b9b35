"""LLM-serving KV-cache workload: (token, layer) blocks, autoregressive reuse.

LLM inference is *the* production consumer of tiered memory: during
decode, every step appends one token's key/value blocks per transformer
layer and re-reads the blocks of every attended past token for every
layer.  The working set therefore grows monotonically per request, the
read set is perfectly predictable one step ahead, and blocks are
*write-once* — written at append time, immutable thereafter — which is
exactly the access structure the fangyunh Data-Placement-Optimization
simulator schedules between HBM and external memory (PreferHBM /
SplitToken / BatchRatio / LookAhead over token/layer structure).

This module ports that pattern onto the page-trace interface:

* a page is one (sequence, token, layer) KV block
  (``page = seq_base + token * num_layers + layer``);
* each epoch is one decode step across a batch of concurrent
  sequences: reads of all attended past-token blocks over every layer,
  then writes of the newly appended token's blocks;
* a request that exhausts its sequence slot completes and a new request
  (same prompt slots — prefix caching) replaces it, so generated-token
  blocks go cold at wrap while prompt blocks stay hot forever;
* *token skipping* (the related repo's ``skip_token_kv`` levels) thins
  attention over old tokens: the most recent ``recent_window`` tokens
  are always attended, older tokens only at stride ``2**skip_level`` —
  level 0 is full attention.  Skipping is what splits the KV footprint
  into persistently hot (prompt + strided + window) and cold
  (skipped generated) blocks, the structure tiering policies exploit.

:class:`KVGeometry` is the single source of truth for the per-step read
and write sets.  The workload generates its trace from it, and
:class:`~repro.policies.lookahead.LookAheadPolicy` imports it to compute
the *next* step's read set exactly — the "known autoregressive future"
that makes look-ahead placement possible at all.
"""

# repro: hot-path — trace generation feeds every kvcache job; stay vectorized

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.base import TraceWorkload


@dataclass(frozen=True)
class KVGeometry:
    """Block layout and per-step access sets of a KV-cache trace.

    Pure data + pure functions of the decode step index, shared by the
    workload (to emit the trace) and the look-ahead policy (to predict
    it), so prediction and generation can never drift apart.
    """

    num_layers: int
    num_seqs: int
    #: KV slots per sequence, in tokens (prompt + generation budget)
    tokens_per_seq: int
    #: prompt tokens resident from prefill (re-read every step)
    prompt_tokens: int
    #: trailing tokens always attended regardless of skipping
    recent_window: int
    #: attention stride over pre-window tokens: ``2**skip_level``
    skip_stride: int

    @classmethod
    def derive(
        cls,
        num_pages: int,
        num_layers: int,
        num_seqs: int,
        prompt_fraction: float,
        recent_window: int,
        skip_level: int,
    ) -> "KVGeometry":
        """Size the block layout from a page budget (the workload RSS)."""
        if num_layers < 1 or num_seqs < 1:
            raise ValueError("need at least one layer and one sequence")
        if not 0.0 < prompt_fraction < 1.0:
            raise ValueError("prompt fraction must be a proper fraction")
        if recent_window < 1:
            raise ValueError("recent window must hold at least one token")
        if skip_level < 0:
            raise ValueError("skip level must be non-negative")
        tokens_per_seq = num_pages // (num_layers * num_seqs)
        if tokens_per_seq < 2:
            raise ValueError(
                f"{num_pages} pages cannot hold {num_seqs} sequences of "
                f"{num_layers}-layer KV blocks (need >= 2 tokens per sequence)"
            )
        prompt_tokens = max(1, int(tokens_per_seq * prompt_fraction))
        if prompt_tokens >= tokens_per_seq:
            prompt_tokens = tokens_per_seq - 1
        return cls(
            num_layers=int(num_layers),
            num_seqs=int(num_seqs),
            tokens_per_seq=int(tokens_per_seq),
            prompt_tokens=int(prompt_tokens),
            recent_window=int(recent_window),
            skip_stride=1 << int(skip_level),
        )

    # ------------------------------------------------------------------
    @property
    def gen_tokens(self) -> int:
        """Decode steps per request before its sequence slot wraps."""
        return self.tokens_per_seq - self.prompt_tokens

    @property
    def pages_per_seq(self) -> int:
        return self.tokens_per_seq * self.num_layers

    @property
    def total_pages(self) -> int:
        """Pages the block layout actually occupies (<= workload RSS)."""
        return self.pages_per_seq * self.num_seqs

    def resident_tokens(self, step: int) -> int:
        """Tokens already in the cache when decode step ``step`` runs."""
        return self.prompt_tokens + step % self.gen_tokens

    def read_tokens(self, step: int) -> np.ndarray:
        """Token indices attended at ``step``, hottest first.

        Order encodes placement priority for quota-clamped promotions:
        the recent window (newest first — those survive in the window
        longest) ahead of the strided older tokens.
        """
        resident = self.resident_tokens(step)
        window_lo = max(resident - self.recent_window, 0)
        window = np.arange(resident - 1, window_lo - 1, -1, dtype=np.int64)
        if window_lo == 0:
            return window
        older = np.arange(0, window_lo, self.skip_stride, dtype=np.int64)
        return np.concatenate([window, older])

    # ------------------------------------------------------------------
    def _blocks(self, tokens: np.ndarray) -> np.ndarray:
        """Every sequence's block pages for ``tokens``, layout order
        ``(seq, token, layer)`` — sequences outermost, so one request's
        per-step pattern stays contiguous."""
        layers = np.arange(self.num_layers, dtype=np.int64)
        per_seq = (tokens[:, None] * self.num_layers + layers).ravel()
        seq_bases = np.arange(self.num_seqs, dtype=np.int64) * self.pages_per_seq
        return (seq_bases[:, None] + per_seq).ravel()

    def read_pages(self, step: int) -> np.ndarray:
        """All block pages attended at ``step``, hottest first per seq."""
        return self._blocks(self.read_tokens(step))

    def write_pages(self, step: int) -> np.ndarray:
        """The appended token's block pages (one token x all layers x seqs)."""
        token = np.array([self.resident_tokens(step)], dtype=np.int64)
        return self._blocks(token)

    def step_pages(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """One decode step's full ``(pages, is_write)`` access pattern."""
        reads = self.read_pages(step)
        writes = self.write_pages(step)
        pages = np.concatenate([reads, writes])
        is_write = np.zeros(pages.size, dtype=bool)
        is_write[reads.size :] = True
        return pages, is_write


class KVCacheWorkload(TraceWorkload):
    """Autoregressive KV-cache traffic over (token, layer) block pages.

    Args:
        num_pages: KV pool size in pages; the block layout is derived
            from it (``tokens_per_seq = num_pages // (layers * seqs)``).
        total_batches: Decode steps to run (one step per epoch).
        num_layers: Transformer layers (blocks per token).
        num_seqs: Concurrent sequences in the decode batch.
        prompt_fraction: Fraction of each sequence slot prefilled as
            prompt (the context-length sweep axis).
        recent_window: Tokens always attended (sliding window).
        skip_level: Token-skipping level; old tokens are attended at
            stride ``2**skip_level`` (0 = full attention).

    The trace is a pure function of the geometry — decode reads and
    appends are structural, not sampled — so the engine rng is never
    consumed and ``is_write`` marks exactly the appended blocks.
    """

    name = "kvcache"

    def __init__(
        self,
        num_pages: int = 65536,
        total_batches: int = 64,
        batch_size: int = 1 << 16,
        write_fraction: float = 0.0,
        num_layers: int = 8,
        num_seqs: int = 4,
        prompt_fraction: float = 0.25,
        recent_window: int = 16,
        skip_level: int = 4,
    ) -> None:
        super().__init__(num_pages, total_batches, batch_size, write_fraction)
        #: the block layout, validated eagerly
        self.geometry = KVGeometry.derive(
            num_pages, num_layers, num_seqs, prompt_fraction, recent_window, skip_level
        )

    # ------------------------------------------------------------------
    def next_batch(self, rng: np.random.Generator):
        """One decode step; overrides the base to emit structural writes
        (appends) instead of sampled ones."""
        del rng  # the trace is a pure function of the geometry
        if self.emitted >= self.total_batches:
            return None
        pages, is_write = self.geometry.step_pages(self.emitted)
        self.emitted += 1
        if pages.max() >= self.num_pages:
            raise RuntimeError(f"{self.name}: block page outside the KV pool")
        return self._fit_pair(pages, is_write)

    def _fit_pair(self, pages: np.ndarray, is_write: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cycle-pad or truncate the paired arrays to the epoch size,
        like :meth:`TraceWorkload._fit_to_batch` but keeping reads and
        writes aligned."""
        if pages.size == self.batch_size:
            return pages, is_write
        if pages.size > self.batch_size:
            return pages[: self.batch_size], is_write[: self.batch_size]
        reps = -(-self.batch_size // pages.size)  # ceil division
        return (
            np.tile(pages, reps)[: self.batch_size],
            np.tile(is_write, reps)[: self.batch_size],
        )

    def generate(self, batch_index: int, rng: np.random.Generator) -> np.ndarray:
        """Page stream of one decode step (base-class hook; the engine
        path goes through :meth:`next_batch` for structural writes)."""
        del rng
        return self.geometry.step_pages(batch_index)[0]
