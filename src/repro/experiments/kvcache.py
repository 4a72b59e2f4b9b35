"""KV-cache tiering harness: context length x placement x tier mode.

The production question behind ROADMAP item 3: serving LLM decode
traffic out of a tiered-memory machine, how much does placement matter
as the context (prompt) grows, and does an oracle that exploits the
known autoregressive future (:class:`~repro.policies.lookahead.
LookAheadPolicy`) actually beat the reactive baselines — under both
exclusive tiers (a block lives in one tier) and inclusive tiers (the
fast tier duplicates, so demoting a clean block is free)?

Each grid point runs :class:`~repro.workloads.kvcache.KVCacheWorkload`
under one placement strategy and one tier mode, and reports

* **decode-step latency proxy** — simulated wall time per decode step
  (one epoch is one step), in microseconds;
* **fast-tier hit rate** — LLC-missed accesses served by the fast tier;
* **migration traffic** — pages promoted + demoted over the run.

Jobs are plain :class:`~repro.experiments.sweep.JobSpec`s, so the grid
runs through the sweep executor (inline, on the process pool, or split
over shards) and lands in the content-addressed result cache like every
other figure.
"""

from __future__ import annotations

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.sweep import JobSpec, SweepExecutor, resolve_executor

#: prompt_fraction sweep: how much of each sequence slot the (re-read
#: forever) prompt context occupies — the "context length" axis
CONTEXTS = (0.125, 0.25, 0.5)

#: placement strategies: the static baseline, three reactive profilers,
#: and the oracle
STRATEGIES = ("first-touch", "tpp", "memtis", "neomem", "lookahead")

TIER_MODES = ("exclusive", "inclusive")


def kvcache_jobs(
    config: ExperimentConfig = DEFAULT_CONFIG,
    contexts=CONTEXTS,
    strategies=STRATEGIES,
    tier_modes=TIER_MODES,
) -> list[JobSpec]:
    """The (context x strategy x tier-mode) grid as JobSpecs, grid order.

    ``prompt_fraction`` goes to the workload always, and to the policy
    only for ``lookahead`` — the oracle must model the same geometry it
    predicts, while the reactive baselines take no geometry knobs.
    """
    jobs = []
    for context in contexts:
        for mode in tier_modes:
            point = config.with_tier_mode(mode)
            for strategy in strategies:
                policy_kwargs = (
                    {"prompt_fraction": context} if strategy == "lookahead" else {}
                )
                jobs.append(
                    JobSpec(
                        "kvcache",
                        strategy,
                        point,
                        workload_overrides={"prompt_fraction": context},
                        policy_kwargs=policy_kwargs,
                        tag=f"ctx{context:g}/{mode}",
                    )
                )
    return jobs


def run_kvcache(
    config: ExperimentConfig = DEFAULT_CONFIG,
    contexts=CONTEXTS,
    strategies=STRATEGIES,
    tier_modes=TIER_MODES,
    *,
    executor: SweepExecutor | None = None,
) -> list[dict]:
    """Run the grid; one result row per (context, tier mode, strategy)."""
    reports = resolve_executor(executor).run(kvcache_jobs(config, contexts, strategies, tier_modes))
    rows = []
    flat = iter(reports)
    for context in contexts:
        for mode in tier_modes:
            for strategy in strategies:
                report = next(flat)
                summary = report.summary()
                epochs = max(1, config.batches)
                rows.append(
                    {
                        "context": context,
                        "tier_mode": mode,
                        "policy": strategy,
                        "decode_step_us": summary["runtime_s"] / epochs * 1e6,
                        "fast_hit_ratio": report.fast_hit_ratio,
                        "migrated_pages": summary["promoted_pages"]
                        + summary["demoted_pages"],
                    }
                )
    return rows


def format_kvcache(rows: list[dict]) -> str:
    """Render the result rows as the harness's summary table."""
    return format_table(
        ["context", "tiers", "policy", "step_us", "fast_hit", "migrated"],
        [
            (
                f"{row['context']:g}",
                row["tier_mode"],
                row["policy"],
                row["decode_step_us"],
                row["fast_hit_ratio"],
                row["migrated_pages"],
            )
            for row in rows
        ],
        title="KV-cache tiering: decode-step latency / hit rate / traffic",
    )
