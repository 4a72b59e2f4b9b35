"""Workload trace-generator interface.

A workload emits, epoch by epoch, batches of page-granularity accesses
(``pages``, ``is_write``) that the engine filters through the LLC model.
Each access denotes one 64 B load/store at a uniformly random offset
inside the page, which is the granularity every decision in the paper is
made at.

Generators are *synthetic but signature-faithful*: each class reproduces
the published access pattern of its benchmark (skewed hot regions for
GUPS/XSBench, build/iterate phases for PageRank, zipfian keys for
Silo/Redis, streaming sweeps for the SPEC workloads), scaled down by the
global factor of ``experiments/config.py`` so runs finish in seconds.
"""

from __future__ import annotations

import abc
import dataclasses
import inspect

import numpy as np


class TraceWorkload(abc.ABC):
    """Base class for epoch-batch trace generators.

    Args:
        num_pages: Resident-set size in 4 KB pages.
        total_batches: Number of epochs before the workload finishes.
        batch_size: Accesses per epoch.
        write_fraction: Probability any given access is a store.

    A fresh instance's trace is a pure function of its class, its
    constructor arguments and the engine seed (:meth:`trace_key`), so
    a generator must draw only on those: no state set after
    construction, no randomness but the ``rng`` handed to
    :meth:`generate`.  :meth:`check_unchanged` enforces the first half.
    """

    #: registry key; subclasses override
    name = "trace"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._init_signature = inspect.signature(cls.__init__)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        # the most-derived constructor's arguments, defaults applied, in
        # signature order: recorded here so no subclass can forget them.
        # Partial binding because unpickling calls __new__ bare and then
        # restores the recorded arguments with the rest of the state.
        bound = cls._init_signature.bind_partial(self, *args, **kwargs)
        bound.apply_defaults()
        self._trace_args = tuple(bound.arguments.items())[1:]
        return self

    def __init__(
        self,
        num_pages: int,
        total_batches: int,
        batch_size: int = 1 << 16,
        write_fraction: float = 0.3,
    ) -> None:
        if num_pages <= 0 or total_batches <= 0 or batch_size <= 0:
            raise ValueError("sizes must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write fraction must be within [0, 1]")
        self.num_pages = int(num_pages)
        self.total_batches = int(total_batches)
        self.batch_size = int(batch_size)
        self.write_fraction = float(write_fraction)
        self.emitted = 0

    # ------------------------------------------------------------------
    def next_batch(self, rng: np.random.Generator):
        """Engine hook: emit one epoch, or None when finished."""
        if self.emitted >= self.total_batches:
            return None
        pages = self.generate(self.emitted, rng)
        self.emitted += 1
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            raise RuntimeError(f"{self.name}: generated an empty batch")
        if pages.min() < 0 or pages.max() >= self.num_pages:
            raise RuntimeError(f"{self.name}: page number outside the RSS")
        pages = self._fit_to_batch(pages)
        is_write = rng.random(pages.size) < self.write_fraction
        return pages, is_write

    def _fit_to_batch(self, pages: np.ndarray) -> np.ndarray:
        """Enforce the exact epoch size: truncate or cycle-pad.

        Generators work in whole lookups/sweeps, so integer division can
        leave a batch a few accesses short; cycling preserves the batch's
        distribution.
        """
        if pages.size == self.batch_size:
            return pages
        if pages.size > self.batch_size:
            return pages[: self.batch_size]
        reps = -(-self.batch_size // pages.size)  # ceil division
        return np.tile(pages, reps)[: self.batch_size]

    def trace_key(self, seed: int) -> tuple:
        """Hashable identity of the trace a fresh instance yields when the
        engine runs it with ``seed``: the class plus its constructor
        arguments with defaults applied."""
        cls = type(self)
        return (cls.__module__, cls.__qualname__, self._trace_args, int(seed))

    def check_unchanged(self) -> None:
        """Raise ``ValueError`` naming the first attribute in which this
        workload differs from a fresh instance of its constructor
        arguments: changed after construction, it no longer yields the
        trace :meth:`trace_key` names."""
        mine, fresh = vars(self), vars(type(self)(**dict(self._trace_args)))
        # the twin is built from _trace_args, so the two agree on it
        for name in sorted((mine.keys() | fresh.keys()) - {"_trace_args"}):
            if name not in mine or name not in fresh or not _same(mine[name], fresh[name]):
                raise ValueError(
                    f"{self.name}: attribute {name!r} differs from a fresh instance of its "
                    "constructor arguments; a workload must not change after construction"
                )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def generate(self, batch_index: int, rng: np.random.Generator) -> np.ndarray:
        """Produce the page-number array for epoch ``batch_index``."""


def _same(a, b) -> bool:
    """Equal values: arrays by dtype and contents, dataclasses and
    containers member by member, anything else by ``==``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b
