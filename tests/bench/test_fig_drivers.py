"""Fast smoke coverage of every figure bench at tiny scale: its ``run``
lands in the runner's schema with the same named checks it has at quick
scale.  The checks' verdicts and the pinned numbers are
``benchmarks/test_figures.py``'s, at quick scale."""

import json
from dataclasses import replace
from pathlib import Path

from repro.bench import runner

PINS = json.loads(
    (Path(__file__).parents[1] / "data" / "bench_quick_pins.json").read_text()
)
TINY_SETUP = {"n_sensors": 1200, "n_queries": 30}
TINY = {
    "fig2": {"n_samples": 500, "seed": 3},
    "fig3": TINY_SETUP,
    "fig4": {**TINY_SETUP, "windows": [120.0, 480.0]},
    "fig5": {**TINY_SETUP, "cache_fractions": [0.2], "sample_sizes": [10, 100]},
    "fig6": {**TINY_SETUP, "cache_fractions": [0.2], "sample_sizes": [10]},
    "fig7": {"sample_sizes": [5, 15, 50, 200], "n_trials": 4},
}


def smoke(name: str) -> dict:
    """Run ``name`` at its tiny parameters through the runner (which
    validates the artifact) and return its phases."""
    bench = runner.load(name)
    assert set(TINY[name]) == set(bench.quick) == set(bench.full)
    artifact = runner.run_bench(replace(bench, quick=TINY[name]), quick=True)
    assert artifact["params"] == TINY[name]
    assert sorted(artifact["checks"]) == sorted(PINS[name]["checks"])
    return artifact["phases"]


class TestDrivers:
    def test_fig2_structure(self):
        phases = smoke("fig2")
        assert set(phases["optima"]) == {"uniform", "usgs", "weather"}
        curves = phases["utility_cost_ratio"]
        assert all(len(curves[name]) == len(curves["deltas"]) for name in phases["optima"])

    def test_fig3_structure(self):
        assert list(smoke("fig3")) == ["rtree", "hier_cache", "colr_tree"]

    def test_fig4_structure(self):
        phases = smoke("fig4")
        assert list(phases) == ["fresh_120s", "fresh_480s", "summary"]
        assert phases["summary"]["max_probe_reduction_vs_flat"] > 0

    def test_fig5_structure(self):
        phases = smoke("fig5")
        assert list(phases) == ["cache_0.2_target_10", "cache_0.2_target_100"]
        assert phases["cache_0.2_target_10"]["mean_probes"] >= 0

    def test_fig6_structure(self):
        (cell,) = smoke("fig6").values()
        assert 0.0 <= cell["target_accuracy"] <= 1.5

    def test_fig7_structure(self):
        phases = smoke("fig7")
        assert list(phases) == ["sample_5", "sample_15", "sample_50", "sample_200"]
        assert phases["sample_5"]["mean_relative_error"] >= 0
