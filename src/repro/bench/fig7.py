"""Figure 7 — aggregate approximation error vs sample size.

The USGS Washington workload: 200 gauges over a spatially correlated
discharge field, querying the statewide average with different
SAMPLESIZE budgets and measuring the relative error against the
noise-free regional mean.

Paper shape: the error falls quickly with sample size; ~15 sampled
sensors already land within 10%.

    python -m repro.bench fig7 [--quick]
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.report import StreamSummary
from repro.bench.runner import Bench
from repro.core.config import COLRTreeConfig
from repro.core.tree import COLRTree
from repro.sensors.network import SensorNetwork
from repro.workloads.usgs import WA_BBOX, UsgsWaWorkload

SEED = 0


def run(sample_sizes: list[int], n_trials: int) -> dict:
    """Average relative error over fresh-tree trials per sample size.

    Each trial uses a cold cache (so the answer really is a random
    sample) and a distinct index RNG stream.
    """
    workload = UsgsWaWorkload(seed=SEED)
    sensors = workload.sensors()
    truth = workload.true_regional_mean(0.0)
    config = COLRTreeConfig(
        fanout=4,
        leaf_capacity=8,
        max_expiry_seconds=workload.expiry_seconds,
        slot_seconds=workload.expiry_seconds / 5.0,
        terminal_level=1,
        oversample_level=2,
    )
    phases: dict[str, dict] = {}
    for size in sample_sizes:
        errors = []
        for trial in range(n_trials):
            network = SensorNetwork(
                sensors, value_fn=workload.value_fn(), seed=SEED + trial
            )
            tree = COLRTree(sensors, replace(config, seed=trial), network=network)
            answer = tree.query(
                WA_BBOX,
                now=0.0,
                max_staleness=workload.expiry_seconds,
                sample_size=size,
            )
            if answer.result_weight == 0:
                continue
            estimate = answer.estimate("avg")
            errors.append(abs(estimate - truth) / abs(truth))
        summary = StreamSummary(errors)
        phases[f"sample_{size}"] = {
            "mean_relative_error": summary.mean,
            "p90_relative_error": summary.percentile(90.0),
        }

    def error_at(size: int) -> float:
        return phases[f"sample_{size}"]["mean_relative_error"]

    return {
        "phases": phases,
        "checks": {
            "fig7_error_at_15_le_0_12": error_at(15) <= 0.12,
            "fig7_error_falls_from_5_to_50_to_200": error_at(5)
            > error_at(50)
            > error_at(200),
            "fig7_error_at_200_lt_0_01": error_at(200) < 0.01,
        },
    }


BENCH = Bench(
    name="fig7",
    full={"sample_sizes": [5, 10, 15, 20, 30, 50, 100, 200], "n_trials": 25},
    quick={"sample_sizes": [5, 15, 50, 200], "n_trials": 20},
    run=run,
)
