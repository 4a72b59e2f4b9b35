"""LAY bad fixture, analyzed as a module of repro.telemetry: telemetry
may import only itself."""

import repro.memsim.engine  # LAY002
from repro.core import neoprof  # LAY002
from repro.telemetry.core import Telemetry

from .. import experiments  # LAY002
from . import registry


def used():
    return repro.memsim.engine, neoprof, Telemetry, experiments, registry
