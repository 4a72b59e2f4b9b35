#!/usr/bin/env python
"""Writing a custom migration policy against the sysfs knob surface.

The paper exposes NeoMem's runtime parameters through
``/sys/kernel/mm/neomem`` so operators can implement their own
scheduling in user space (Sec. V-B).  This example does exactly that:
it runs Page-Rank under a NeoMem daemon whose threshold is driven by a
tiny *user-space* controller that reads the knobs mid-run and reacts —
here, clamping the migration cadence during the write-heavy build phase
and opening it up for the processing iterations.

Usage::

    python examples/custom_policy.py
"""

from repro import ExperimentConfig
from repro.core.sysfs import NeoMemSysfs
from repro.experiments.fig14 import PAGERANK_KWARGS
from repro.experiments.runner import build_engine, build_workload


class PhaseAwareController:
    """User-space controller: retune NeoMem knobs per workload phase."""

    def __init__(self, sysfs: NeoMemSysfs, workload):
        self.sysfs = sysfs
        self.workload = workload
        self.last_phase = None

    def tick(self, epoch: int) -> None:
        phase = self.workload.phase_of(min(epoch, self.workload.total_batches - 1))
        if phase == self.last_phase:
            return
        self.last_phase = phase
        if phase == "build":
            # streaming writes: migrating mid-build wastes bandwidth
            self.sysfs.write("migration_interval_ms", "2.0")
        else:
            # iterations: promote aggressively
            self.sysfs.write("migration_interval_ms", "0.2")
        print(f"  [controller] phase={phase}: migration_interval_ms ->"
              f" {self.sysfs.read('migration_interval_ms')}")


def main() -> None:
    config = ExperimentConfig(num_pages=12288, batches=36, batch_size=12288)
    workload = build_workload("pagerank", config, total_batches=None, **PAGERANK_KWARGS)
    engine = build_engine(workload, "neomem", config)

    sysfs = NeoMemSysfs(engine.policy)
    print("visible knobs:", ", ".join(sysfs.list()))
    controller = PhaseAwareController(sysfs, workload)

    # drive the engine epoch-by-epoch, letting the controller intervene
    print("running Page-Rank with a phase-aware user-space controller...")
    while True:
        controller.tick(engine.epoch)
        batch = workload.next_batch(engine.rng)
        if batch is None:
            break
        engine.step(*batch)

    report = engine.report
    print(f"\nruntime: {report.total_time_s * 1e3:.2f} ms, "
          f"promoted {report.total_promoted_pages} pages, "
          f"fast-tier hit ratio {report.fast_hit_ratio:.2%}")
    print(f"final hot threshold (device): {sysfs.read('hot_threshold')}")
    print(f"hot reports dropped by the FIFO: {sysfs.read('nr_dropped_reports')}")


if __name__ == "__main__":
    main()
