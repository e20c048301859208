"""Figure 2 — utility/cost ratio vs slot size per expiry workload.

Reproduces the sweep of Section IV-C under the calibrated reference
workload: three expiry profiles (Uniform / USGS-like / Weather-like),
ratio curves over a Δ grid, and the per-workload optimum.  The paper
reports optima of 0.5 (Uniform), 0.8 (USGS) and 0.2 (Weather).

    python -m repro.bench fig2 [--quick]
"""

from __future__ import annotations

from repro.bench.runner import Bench
from repro.core.slot_sizing import (
    FIG2_WORKLOAD,
    SlotSizeModel,
    default_delta_grid,
    optimal_slot_size,
)
from repro.workloads.expiry import (
    uniform_expiry,
    usgs_like_expiry,
    weather_like_expiry,
)

PAPER_OPTIMA = {"uniform": 0.5, "usgs": 0.8, "weather": 0.2}


def run(n_samples: int, seed: int) -> dict:
    """Sweep the Δ grid for all three expiry workloads."""
    profiles = {
        "uniform": uniform_expiry(n_samples, seed=seed),
        "usgs": usgs_like_expiry(n_samples, seed=seed),
        "weather": weather_like_expiry(n_samples, seed=seed),
    }
    deltas = default_delta_grid()
    curves: dict[str, list[float]] = {}
    optima: dict[str, float] = {}
    for name, samples in profiles.items():
        model = SlotSizeModel(
            expiry_samples=tuple(float(x) for x in samples), **FIG2_WORKLOAD
        )
        curves[name] = [model.ratio(d) for d in deltas]
        optima[name] = optimal_slot_size(model, deltas)
    return {
        "phases": {
            "optima": optima,
            "utility_cost_ratio": {"deltas": deltas, **curves},
        },
        "checks": {
            "fig2_optima_match_paper": all(
                abs(optima[name] - paper) < 1e-9 for name, paper in PAPER_OPTIMA.items()
            ),
            "fig2_curves_peak_at_optimum": all(
                deltas[curve.index(max(curve))] == optima[name]
                for name, curve in curves.items()
            ),
        },
    }


BENCH = Bench(
    name="fig2",
    full={"n_samples": 4000, "seed": 3},
    quick={"n_samples": 4000, "seed": 3},
    run=run,
)
