"""Figure 11: end-to-end performance, 8 workloads x 6 systems."""

from benchmarks.conftest import run_once
from repro.experiments import fig11
from repro.experiments.reporting import format_table
from repro.workloads import BENCHMARKS


def test_fig11_end_to_end(benchmark, bench_config, sweep):
    reports = run_once(benchmark, fig11.run_fig11, bench_config, executor=sweep)
    table = fig11.normalized_performance(reports)
    print()
    systems = list(fig11.SYSTEMS)
    rows = [
        [workload] + [table[workload][s] for s in systems]
        for workload in list(BENCHMARKS) + ["geomean"]
    ]
    print(
        format_table(
            ["workload"] + systems,
            rows,
            title="Fig 11: performance normalized to PEBS (higher is better)",
        )
    )
    speedups = fig11.headline_speedups(table)
    print("NeoMem geomean speedups:",
          {k: f"{(v - 1) * 100:.0f}%" for k, v in speedups.items()})

    geo = table["geomean"]
    # NeoMem wins the geomean against every baseline (paper: 32-67 %;
    # measured here: ~19-53 % at the scaled run length)
    for system, value in geo.items():
        if system != "neomem":
            assert geo["neomem"] > value, system
    assert speedups["pebs"] > 1.10
    assert speedups["first-touch"] > 1.25
    # skewed-hot-set workloads show the largest first-touch gaps
    for workload in ("gups", "xsbench"):
        assert table[workload]["neomem"] / table[workload]["first-touch"] > 1.5
