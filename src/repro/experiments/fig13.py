"""Figure 13: slow-tier traffic and promotion/demotion counts.

Derived from the Fig. 11 grid: for every workload and system,

* sampled slow-tier (CXL) traffic in bytes — NeoMem lowest across the
  board, which is *why* it wins end-to-end;
* promotions and demotions normalized to PEBS — AutoNUMA promotes far
  more than NeoMem, TPP promotes least, First-touch promotes nothing.
"""

from __future__ import annotations

from repro.memsim.metrics import SimulationReport


def traffic_and_migrations(
    reports: dict[str, dict[str, SimulationReport]],
    baseline: str = "pebs",
) -> dict[str, dict[str, dict[str, float]]]:
    """Extract Fig. 13's three panels from the Fig. 11 reports.

    Returns ``out[workload][system] = {slow_traffic_bytes,
    promoted_norm, demoted_norm, promoted_pages, demoted_pages}``.
    """
    out: dict[str, dict[str, dict[str, float]]] = {}
    for workload, by_system in reports.items():
        base_promote = max(by_system[baseline].total_promoted_pages, 1)
        base_demote = max(by_system[baseline].total_demoted_pages, 1)
        out[workload] = {}
        for system, report in by_system.items():
            out[workload][system] = {
                "slow_traffic_bytes": float(report.total_slow_traffic_bytes),
                "promoted_pages": float(report.total_promoted_pages),
                "demoted_pages": float(report.total_demoted_pages),
                "promoted_norm": report.total_promoted_pages / base_promote,
                "demoted_norm": report.total_demoted_pages / base_demote,
            }
    return out


def neomem_has_lowest_traffic(panel: dict[str, dict[str, dict[str, float]]]) -> dict[str, bool]:
    """Acceptance helper: is NeoMem's slow-tier traffic the minimum?"""
    verdicts = {}
    for workload, by_system in panel.items():
        neomem = by_system["neomem"]["slow_traffic_bytes"]
        others = [
            stats["slow_traffic_bytes"]
            for system, stats in by_system.items()
            if system != "neomem"
        ]
        verdicts[workload] = neomem <= min(others) * 1.05
    return verdicts
