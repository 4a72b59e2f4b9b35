"""LAY bad fixture, analyzed as a module of repro.memsim: imports of the
experiment harnesses from below them, in every spelling."""

import repro.experiments.runner  # LAY001
from repro import experiments  # LAY001
from repro.experiments.config import ExperimentConfig  # LAY001

from ..experiments import sweep  # LAY001


def deferred():
    from repro.experiments import backends  # LAY001

    return experiments, ExperimentConfig, sweep, backends, repro.experiments.runner
