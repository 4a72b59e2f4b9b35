"""First-touch NUMA baseline: allocate until full, never migrate.

The widely used default the paper compares against: pages land on the
fast node while it has room and stay wherever they were first placed.
No profiling, no promotion, no demotion — so it is also the zero-
overhead reference point for Fig. 16's "Baseline" curve.
"""

from __future__ import annotations

from repro.policies.base import BaseTieringPolicy


class FirstTouchPolicy(BaseTieringPolicy):
    """No-op tiering: placement is whatever first touch produced."""

    name = "first-touch"

    def on_epoch(self, view) -> float:
        # deliberately nothing: no profiling, no migration, no demotion
        return 0.0
