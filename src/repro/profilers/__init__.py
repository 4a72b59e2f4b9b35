"""Memory-access profiling techniques (Table I).

Five substrates behind one interface: PTE-scan, DAMON-style region
sampling, hint-fault monitoring, PEBS sampling, and the NeoProf device
adapter.  Policies in :mod:`repro.policies` are built on these.
"""

from repro.profilers.base import Profiler
from repro.profilers.pte_scan import PteScanProfiler
from repro.profilers.damon import DamonProfiler
from repro.profilers.hint_fault import HintFaultProfiler
from repro.profilers.pebs import PebsProfiler
from repro.profilers.neoprof_adapter import NeoProfProfiler

__all__ = [
    "Profiler",
    "PteScanProfiler",
    "DamonProfiler",
    "HintFaultProfiler",
    "PebsProfiler",
    "NeoProfProfiler",
]
