"""Co-location sweep: 2-8 tenants, slowdown-vs-solo and Jain fairness.

The datacenter companion to the paper's single-tenant figures: N
tenants carve up one fixed machine (combined RSS and fast:slow ratio
held at the Fig. 11 configuration), and each scheduling discipline is
scored by how much contention hurts (mean/worst slowdown vs running
alone) and how evenly it hurts (Jain's index over the slowdowns).
"""

from benchmarks.conftest import run_once
from repro.experiments import colocation
from repro.experiments.reporting import format_table

TENANT_COUNTS = (2, 4, 8)


def test_colocation_sweep(benchmark, bench_config, sweep):
    rows = run_once(
        benchmark,
        colocation.run_colocation_sweep,
        tenant_counts=TENANT_COUNTS,
        config=bench_config,
        executor=sweep,
    )
    print()
    print(colocation.format_colocation(rows))
    print(
        format_table(
            ["tenants", "scheduler", "per-tenant slowdown"],
            [
                (
                    row["tenants"],
                    row["scheduler"],
                    "  ".join(f"{name}={s:.2f}" for name, s in row["slowdowns"].items()),
                )
                for row in rows
            ],
            title="Per-tenant slowdowns",
        )
    )

    assert len(rows) == len(TENANT_COUNTS) * 3  # three schedulers each
    for row in rows:
        n = row["tenants"]
        # every tenant has a solo baseline, so fairness is defined and
        # bounded; the schedulers all stay far from the 1/n floor
        assert 1.0 / n <= row["fairness"] <= 1.0
        assert row["fairness"] > 0.9, row
        # contention can only hurt (small noise below 1.0 tolerated)
        assert row["mean_slowdown"] > 0.95, row
        assert row["worst_slowdown"] >= row["mean_slowdown"]
        assert set(row["slowdowns"]) and len(row["slowdowns"]) == n
    # packing more tenants onto the fixed machine increases contention:
    # mean slowdown (averaged over schedulers) grows with tenant count
    by_count = {
        n: [r["mean_slowdown"] for r in rows if r["tenants"] == n]
        for n in TENANT_COUNTS
    }
    means = [sum(v) / len(v) for v in (by_count[n] for n in TENANT_COUNTS)]
    assert means == sorted(means), means
