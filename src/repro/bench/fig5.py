"""Figure 5 — cache size constraint x sample size sweeps.

Varies the global cache limit (16-32% of the sensor population) and the
query sample target (100 / 1,000 / 10,000) and reports per-cell mean
sensor probes, processing latency and internal nodes traversed.

Paper shape: at large sample sizes, growing the cache helps every
metric; at small sample sizes the cache limit barely matters; and as
the cache limit grows, the sample size's effect diminishes (the gap
between sample-size rows narrows from the 16% column to the 32%
column) — sampling matters most when caches must stay small.

    python -m repro.bench fig5 [--quick]

The checks compare the sweep's corners: the smallest and largest cache
fraction at the smallest and largest target.
"""

from __future__ import annotations

from repro.bench.fleets import EvalSetup, run_query_stream
from repro.bench.runner import Bench


def cell_name(fraction: float, target: int) -> str:
    """The phase of one sweep cell (Figures 5 and 6)."""
    return f"cache_{fraction:g}_target_{target}"


def run(
    n_sensors: int,
    n_queries: int,
    cache_fractions: list[float],
    sample_sizes: list[int],
) -> dict:
    """Run the full sweep; fresh system per cell."""
    setup = EvalSetup(n_sensors=n_sensors, n_queries=n_queries)
    phases: dict[str, dict] = {}
    for fraction in cache_fractions:
        capacity = setup.cache_capacity_for_fraction(fraction)
        for target in sample_sizes:
            system = setup.make_colr_tree(setup.config.with_cache_capacity(capacity))
            stream = run_query_stream(system, setup.queries, sample_size=target)
            phases[cell_name(fraction, target)] = {
                "mean_probes": stream.mean("sensors_probed"),
                "mean_latency_seconds": stream.mean("processing_seconds"),
                "mean_nodes_traversed": stream.mean("nodes_traversed"),
            }
    lo, hi = min(cache_fractions), max(cache_fractions)
    small, large = min(sample_sizes), max(sample_sizes)
    lo_small, lo_large, hi_small, hi_large = (
        phases[cell_name(f, t)] for f in (lo, hi) for t in (small, large)
    )
    probes, latency = "mean_probes", "mean_latency_seconds"
    return {
        "phases": phases,
        "checks": {
            "fig5_bigger_cache_fewer_probes_at_large_target": hi_large[probes]
            < lo_large[probes],
            "fig5_bigger_cache_no_slower_at_large_target": hi_large[latency]
            <= lo_large[latency],
            # pytest.approx(rel=0.15, abs=2.0) around the bigger cache's probes.
            "fig5_cache_limit_within_15pct_at_small_target": abs(
                lo_small[probes] - hi_small[probes]
            )
            <= max(0.15 * abs(hi_small[probes]), 2.0),
            "fig5_target_gap_narrower_at_bigger_cache": hi_large[probes] - hi_small[probes]
            < lo_large[probes] - lo_small[probes],
            "fig5_larger_target_traverses_more_nodes": lo_large["mean_nodes_traversed"]
            > lo_small["mean_nodes_traversed"],
        },
    }


BENCH = Bench(
    name="fig5",
    full={
        "n_sensors": 40_000,
        "n_queries": 500,
        "cache_fractions": [0.16, 0.24, 0.32],
        "sample_sizes": [100, 1000, 10000],
    },
    quick={
        "n_sensors": 10_000,
        "n_queries": 250,
        "cache_fractions": [0.16, 0.32],
        "sample_sizes": [30, 1000],
    },
    run=run,
)
