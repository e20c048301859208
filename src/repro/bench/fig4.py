"""Figure 4 — end-to-end probes and latency over freshness windows.

Four panels over a sweep of query freshness (staleness) windows:

i.   ratio of sensor probes (flat cache / COLR-Tree, hierarchical
     cache / COLR-Tree),
ii.  ratio of processing latency,
iii. absolute probe counts,
iv.  absolute processing latencies.

Paper shape: COLR-Tree probes 30-100x fewer sensors than the
collection-agnostic configurations, cuts processing latency 3-5x vs
the hierarchical cache (≈40 ms absolute), and its probe curve bends at
a freshness of ≈4 minutes as the cache covers more of each query.

    python -m repro.bench fig4 [--quick]

One phase per window holds the panels' columns (mean probes and modeled
processing milliseconds per system, and the ratios to COLR-Tree); the
``summary`` phase holds the paper's headline claims over the sweep.
The checks' thresholds are scaled: the paper's 30-100x assumes the
370 k-sensor Live Local density, and ratios grow with density (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.bench.fleets import EvalSetup, run_query_stream
from repro.bench.runner import Bench


def run(n_sensors: int, n_queries: int, windows: list[float]) -> dict:
    """Sweep freshness windows; fresh systems per point (cold caches)."""
    setup = EvalSetup(n_sensors=n_sensors, n_queries=n_queries)
    phases: dict[str, dict] = {}
    # Per system, one mean per window: probes, and modeled seconds.
    probes: dict[str, list[float]] = {"flat": [], "hier": [], "colr": []}
    latency: dict[str, list[float]] = {"flat": [], "hier": [], "colr": []}
    for w in windows:
        queries = [
            q.__class__(
                region=q.region,
                at_time=q.at_time,
                staleness_seconds=w,
                sample_size=q.sample_size,
            )
            for q in setup.queries
        ]
        systems = {
            "flat": (setup.make_flat_cache(), False),
            "hier": (setup.make_hierarchical_cache(), False),
            "colr": (setup.make_colr_tree(), True),
        }
        for short, (system, sampling) in systems.items():
            stream = run_query_stream(system, queries, use_sampling=sampling)
            probes[short].append(stream.mean("sensors_probed"))
            latency[short].append(stream.mean("processing_seconds"))
        p = {short: series[-1] for short, series in probes.items()}
        lat = {short: series[-1] for short, series in latency.items()}
        phases[f"fresh_{w:g}s"] = {
            "fresh_min": w / 60.0,
            **{f"probes_{short}": p[short] for short in systems},
            "probe_x_flat": p["flat"] / max(1e-9, p["colr"]),
            "probe_x_hier": p["hier"] / max(1e-9, p["colr"]),
            **{f"lat_{short}_ms": lat[short] * 1e3 for short in systems},
            "lat_x_hier": lat["hier"] / max(1e-9, lat["colr"]),
        }
    rows = list(phases.values())
    n = len(windows)
    phases["summary"] = {
        "max_probe_reduction_vs_flat": max(r["probe_x_flat"] for r in rows),
        "mean_latency_ratio_hier_over_colr": sum(r["lat_x_hier"] for r in rows) / n,
        "mean_colr_processing_ms": sum(latency["colr"]) / n * 1e3,
    }
    summary = phases["summary"]
    return {
        "phases": phases,
        "checks": {
            "fig4_probes_flat_over_colr_gt_3x_every_window": all(
                r["probe_x_flat"] > 3.0 for r in rows
            ),
            "fig4_probes_hier_over_colr_gt_3x_every_window": all(
                r["probe_x_hier"] > 3.0 for r in rows
            ),
            "fig4_latency_flat_gt_hier_every_window": all(
                f > h for f, h in zip(latency["flat"], latency["hier"])
            ),
            "fig4_latency_hier_gt_colr_every_window": all(
                h > c for h, c in zip(latency["hier"], latency["colr"])
            ),
            "fig4_mean_latency_hier_over_colr_gt_1_5x": summary[
                "mean_latency_ratio_hier_over_colr"
            ]
            > 1.5,
            "fig4_colr_probes_fall_from_first_to_last_window": probes["colr"][0]
            > probes["colr"][-1],
            "fig4_mean_colr_processing_lt_100ms": summary["mean_colr_processing_ms"]
            < 100.0,
        },
    }


BENCH = Bench(
    name="fig4",
    full={
        "n_sensors": 40_000,
        "n_queries": 500,
        "windows": [60.0, 120.0, 240.0, 360.0, 480.0, 600.0],
    },
    quick={"n_sensors": 25_000, "n_queries": 250, "windows": [60.0, 240.0, 600.0]},
    run=run,
)
