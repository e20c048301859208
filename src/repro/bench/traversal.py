"""Traversal microbenchmark: the flattened kernel, cold vs warm plans.

Times the spatial half of the exact range path (``range_scan``: node
classification, cache consults, terminal emission — everything except
the network probes, which would otherwise dominate and hide the index
cost) on one seeded workload:

``rect``
    Rectangular viewports (the portal's query shape).  Cold: every
    region seen for the first time (the plan cache is cleared first, so
    each query pays one vectorized classification).  Warm: the same
    regions again (plan-cache hit: memoized plans only).
``polygon``
    A secondary series over convex-ish polygons: a cold polygon scan
    bottoms out in exact point-in-polygon predicates, so it shows
    plan-cache reuse only.

Answer correctness is not this bench's job: the differential oracle
(``TestTraversalOracle`` in ``tests/property/test_flat_kernel_props.py``)
compares whole scans against the pointer recursion the kernel replaced.
This is the one bench whose every measurement is host wall-clock; its
gate asserts warm plans are >=3x faster than cold ones.

Run with ``PYTHONPATH=src python -m repro.bench traversal``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.bench.fleets import EXTENT, uniform_fleet
from repro.bench.runner import Bench
from repro.core.config import COLRTreeConfig
from repro.core.lookup import Region, range_scan
from repro.core.tree import COLRTree
from repro.geometry import GeoPoint, Polygon, Rect


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


def run(n_sensors: int, n_regions: int, warm_passes: int, seed: int) -> dict:
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
    tree = COLRTree(uniform_fleet(n_sensors, seed), config)
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
        "phases": {
            "build": {
                "tree_nodes": len(tree.kernel.nodes),
                "tree_height": int(tree.root.level),
            },
            "rect": {
                "cold_wall_seconds_per_pass": cold_s,
                "warm_wall_seconds_per_pass": warm_s,
                "cold_wall_microseconds_per_query": 1e6 * cold_s / n_regions,
                "warm_wall_microseconds_per_query": 1e6 * warm_s / n_regions,
                "wall_speedup_warm_over_cold": cold_s / warm_s,
            },
            "polygon": {
                "n_regions": len(poly_regions),
                "cold_wall_seconds_per_pass": poly_cold_s,
                "warm_wall_seconds_per_pass": poly_warm_s,
                "wall_speedup_warm_over_cold": poly_cold_s / poly_warm_s,
            },
            # The cache is cleared between series, so ``entries``
            # reflects the final (polygon) series only.
            "plan_cache": {
                "hits": tree.plan_cache.hits,
                "misses": tree.plan_cache.misses,
                "entries": len(tree.plan_cache),
            },
        },
        "checks": {"wall_warm_over_cold_ge_3x": cold_s / warm_s >= 3.0},
    }


BENCH = Bench(
    name="traversal",
    full={"n_sensors": 40_000, "n_regions": 200, "warm_passes": 5, "seed": 0},
    quick={"n_sensors": 2_500, "n_regions": 60, "warm_passes": 3, "seed": 0},
    run=run,
)
