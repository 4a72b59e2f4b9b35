"""LAY good fixture, analyzed as a module of repro.memsim: numpy, the
package's own modules, a sibling simulation package and telemetry."""

import numpy as np

from repro.telemetry import get_telemetry
from repro.workloads.base import TraceWorkload

from . import cache
from .tiers import TierSpec


def used():
    return np, get_telemetry, TraceWorkload, cache, TierSpec
