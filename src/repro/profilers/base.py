"""Profiler interface: the two calls a tiering policy makes.

A *profiler* is the substrate a tiering policy reads page-hotness
information from.  The paper compares four (Table I): PTE-scan,
hint-fault monitoring, PMU (PEBS) sampling, and NeoProf.  All four are
modelled behind this interface so the same policies can be wired to any
of them and the overhead/resolution trade-offs fall out of the models
rather than being asserted.

Costs are charged in nanoseconds of host CPU time returned from
:meth:`Profiler.observe`; the engine adds them to the epoch duration.
"""

from __future__ import annotations

import abc

import numpy as np


class Profiler(abc.ABC):
    """Base class for all memory-access profiling techniques."""

    #: human-readable name used in reports
    name: str = "profiler"

    @abc.abstractmethod
    def observe(self, view) -> float:
        """Digest one epoch; return host CPU overhead in nanoseconds."""

    @abc.abstractmethod
    def hot_candidates(self) -> np.ndarray:
        """Pages currently believed hot, ready for promotion."""
