"""Traversal microbenchmark: the flattened kernel, cold vs warm plans.

Times the spatial half of the exact range path (``range_scan``: node
classification, cache consults, terminal emission — everything except
the network probes, which would otherwise dominate and hide the index
cost) on one seeded workload in two phases:

``kernel_cold``
    Every region seen for the first time (the plan cache is cleared
    first: each query pays one vectorized classification).
``kernel_warm``
    The same regions again (plan-cache hit: memoized plans only).

Answer correctness is not this bench's job: the differential oracle
(``TestTraversalOracle`` in ``tests/property/test_flat_kernel_props.py``)
compares whole scans against the pointer recursion the kernel replaced.

Results land in ``BENCH_traversal.json`` next to the repo root (or at
``--output``).  ``--quick`` shrinks the workload for CI smoke runs;
``--check`` additionally asserts that warm plans are >=3x faster than
cold ones.

Run with ``PYTHONPATH=src python -m repro.bench.traversal``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.bench.report import run_stamp
from repro.core.config import COLRTreeConfig
from repro.core.lookup import Region, range_scan
from repro.core.tree import COLRTree
from repro.geometry import GeoPoint, Polygon, Rect
from repro.sensors.sensor import Sensor

EXTENT = 100.0


def make_sensors(n: int, seed: int) -> list[Sensor]:
    """A uniform random population over the benchmark extent."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, EXTENT, n)
    ys = rng.uniform(0.0, EXTENT, n)
    expiries = rng.uniform(120.0, 600.0, n)
    return [
        Sensor(
            sensor_id=i,
            location=GeoPoint(float(xs[i]), float(ys[i])),
            expiry_seconds=float(expiries[i]),
        )
        for i in range(n)
    ]


def make_regions(
    n: int, seed: int, polygon_every: int = 0
) -> list[Region]:
    """A mixed-selectivity viewport workload: rectangles across three
    size classes (the portal's map-viewport query shape).  With
    ``polygon_every`` > 0, every that-many-th region is a convex-ish
    polygon instead, exercising the generic classification path."""
    rng = np.random.default_rng(seed)
    regions: list[Region] = []
    for i in range(n):
        cx = float(rng.uniform(0.0, EXTENT))
        cy = float(rng.uniform(0.0, EXTENT))
        half = float(rng.choice([2.0, 8.0, 25.0]) * rng.uniform(0.5, 1.5))
        if polygon_every and i % polygon_every == polygon_every - 1:
            k = int(rng.integers(3, 7))
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, k))
            verts = [
                GeoPoint(
                    min(EXTENT, max(0.0, cx + half * float(np.cos(a)))),
                    min(EXTENT, max(0.0, cy + half * float(np.sin(a)))),
                )
                for a in angles
            ]
            regions.append(Polygon(verts))
        else:
            regions.append(
                Rect(
                    max(0.0, cx - half),
                    max(0.0, cy - half),
                    min(EXTENT, cx + half),
                    min(EXTENT, cy + half),
                )
            )
    return regions


def time_pass(
    tree: COLRTree, regions: Sequence[Region], now: float, staleness: float
) -> float:
    start = time.perf_counter()
    for region in regions:
        range_scan(tree, region, now, staleness)
    return time.perf_counter() - start


def run_traversal_bench(
    n_sensors: int = 40_000,
    n_regions: int = 200,
    warm_passes: int = 5,
    seed: int = 0,
    quick: bool = False,
) -> dict:
    if quick:
        n_sensors, n_regions, warm_passes = 2_500, 60, 3
    bench_start = time.perf_counter()
    sensors = make_sensors(n_sensors, seed)
    # Timed workload: rectangular viewports (the portal's query shape).
    # Polygonal regions exercise the generic classification path; they
    # are timed as a secondary series because a cold polygon scan
    # bottoms out in exact point-in-polygon predicates, so the series
    # shows plan-cache reuse only.
    regions = make_regions(n_regions, seed + 1)
    n_poly = max(10, n_regions // 10)
    poly_regions = [
        r
        for r in make_regions(3 * n_poly, seed + 2, polygon_every=1)
        if isinstance(r, Polygon)
    ][:n_poly]
    config = COLRTreeConfig(
        fanout=8,
        leaf_capacity=32,
        max_expiry_seconds=600.0,
        slot_seconds=120.0,
        seed=seed,
        plan_cache_size=max(256, 2 * (n_regions + n_poly)),
    )
    tree = COLRTree(sensors, config)
    now, staleness = 1_000.0, 240.0

    cold_times = []
    for _ in range(3):
        tree.plan_cache.clear()
        cold_times.append(time_pass(tree, regions, now, staleness))
    warm_times = [
        time_pass(tree, regions, now, staleness) for _ in range(warm_passes)
    ]
    tree.plan_cache.clear()
    poly_cold_s = time_pass(tree, poly_regions, now, staleness)
    poly_warm_s = time_pass(tree, poly_regions, now, staleness)

    cold_s = min(cold_times)
    warm_s = min(warm_times)
    return {
        "benchmark": "traversal",
        **run_stamp(),
        "workload": {
            "n_sensors": n_sensors,
            "n_regions": n_regions,
            "warm_passes": warm_passes,
            "seed": seed,
            "quick": quick,
            "tree_nodes": len(tree.kernel.nodes),
            "tree_height": int(tree.root.level),
        },
        "wall_seconds": time.perf_counter() - bench_start,
        "seconds_per_pass": {"kernel_cold": cold_s, "kernel_warm": warm_s},
        "microseconds_per_query": {
            "kernel_cold": 1e6 * cold_s / n_regions,
            "kernel_warm": 1e6 * warm_s / n_regions,
        },
        "speedup": {"warm_over_cold": cold_s / warm_s},
        "polygon_secondary": {
            "n_regions": len(poly_regions),
            "seconds_per_pass": {
                "kernel_cold": poly_cold_s,
                "kernel_warm": poly_warm_s,
            },
            "speedup": {"warm_over_cold": poly_cold_s / poly_warm_s},
        },
        "plan_cache": {
            "hits": tree.plan_cache.hits,
            "misses": tree.plan_cache.misses,
            "entries": len(tree.plan_cache),
        },
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sensors", type=int, default=40_000)
    parser.add_argument("--regions", type=int, default=200)
    parser.add_argument("--warm-passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert warm plans are >=3x faster than cold ones",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_traversal.json"),
        help="where to write the JSON result",
    )
    args = parser.parse_args(argv)
    result = run_traversal_bench(
        n_sensors=args.sensors,
        n_regions=args.regions,
        warm_passes=args.warm_passes,
        seed=args.seed,
        quick=args.quick,
    )
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    per_query = result["microseconds_per_query"]
    ratio = result["speedup"]["warm_over_cold"]
    print(
        f"traversal bench ({result['workload']['n_sensors']} sensors, "
        f"{result['workload']['n_regions']} regions): "
        f"kernel cold {per_query['kernel_cold']:.0f}us/q, "
        f"warm {per_query['kernel_warm']:.0f}us/q "
        f"({ratio:.1f}x) -> {args.output}"
    )
    if args.check:
        if ratio < 3.0:
            print(f"FAIL: warm/cold speedup {ratio:.2f}x < 3x")
            return 1
        print("acceptance threshold met")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
