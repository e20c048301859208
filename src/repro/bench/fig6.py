"""Figure 6 — sampling accuracy and probe discretization error.

Over the same cache-limit x target-size sweep as Figure 5, reports:

* **target accuracy** — ``min(target, achieved) / min(target,
  unsampled result size)``: how well the SAMPLESIZE contract is met;
* **probe discretization error (pde)** — per-terminal relative gap
  between assigned target and delivered results; cached aggregates
  over-deliver (negative terms), thin terminals under-deliver.

Paper shape: ≥93% accuracy even at target 100 with a small cache,
rising to ~99% at larger targets/caches; pde reveals the tension
between cached aggregates and uniform sampling (|pde| grows with cache
size at small targets, shrinks at the largest target).

    python -m repro.bench fig6 [--quick]
"""

from __future__ import annotations

import numpy as np

from repro.bench.fig5 import cell_name
from repro.bench.fleets import EvalSetup, ideal_result_sizes, run_query_stream
from repro.bench.runner import Bench


def target_accuracy(
    result_weight: int, target_size: int, unsampled_result_size: int
) -> float:
    """Figure 6's target accuracy for one query:
    ``min(target, achieved) / min(target, unsampled)``, where
    *achieved* counts every sensor represented in the answer (probed or
    cache-served).  1.0 when the region holds no sensors."""
    denom = min(target_size, unsampled_result_size)
    if denom <= 0:
        return 1.0
    return min(target_size, result_weight) / denom


def run(
    n_sensors: int,
    n_queries: int,
    cache_fractions: list[float],
    sample_sizes: list[int],
) -> dict:
    setup = EvalSetup(n_sensors=n_sensors, n_queries=n_queries)
    sizes = ideal_result_sizes(setup.sensors, setup.queries)
    phases: dict[str, dict] = {}
    for fraction in cache_fractions:
        capacity = setup.cache_capacity_for_fraction(fraction)
        for target in sample_sizes:
            system = setup.make_colr_tree(setup.config.with_cache_capacity(capacity))
            records = run_query_stream(system, setup.queries, sample_size=target).records
            accuracies = [
                target_accuracy(rec.result_weight, target, int(size))
                for rec, size in zip(records, sizes)
            ]
            pdes = [rec.terminal_pde for rec in records]
            phases[cell_name(fraction, target)] = {
                "target_accuracy": float(np.mean(accuracies)),
                "mean_pde": float(np.mean(pdes)),
                "mean_abs_pde": float(np.mean(np.abs(pdes))),
            }
    lo, hi = min(cache_fractions), max(cache_fractions)
    small, large = min(sample_sizes), max(sample_sizes)
    lo_small, lo_large, hi_small = (
        phases[cell_name(f, t)] for f, t in ((lo, small), (lo, large), (hi, small))
    )
    return {
        "phases": phases,
        "checks": {
            "fig6_target_accuracy_ge_0_90_every_cell": all(
                c["target_accuracy"] >= 0.90 for c in phases.values()
            ),
            "fig6_small_target_pde_negative_at_smallest_cache": lo_small["mean_pde"] < 0,
            "fig6_small_target_pde_negative_at_largest_cache": hi_small["mean_pde"] < 0,
            "fig6_small_target_abs_pde_grows_with_cache": hi_small["mean_abs_pde"]
            >= lo_small["mean_abs_pde"] * 0.95,
            "fig6_large_target_pde_positive": lo_large["mean_pde"] > 0,
        },
    }


BENCH = Bench(
    name="fig6",
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
