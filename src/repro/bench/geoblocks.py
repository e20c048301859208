"""Geoblocks benchmark: polygon planning, grid serving, sliding windows.

Four probes, each with its own acceptance gates:

* **Rectangle parity** — an axis-aligned rectangle drawn as a polygon
  must be answered bit-identically (answer, probes, stats, timings) to
  the equivalent ``Rect``, cold and warm, on a single portal and across
  a 4-shard federation.  Compared with the federation bench's own
  parity comparator over twin identically seeded portals (execution
  warms caches, so one portal cannot serve both sides).
* **Conservation** — genuine (non-rectangular) polygons from every
  workload family must return exactly the sensors the plain tree
  traversal returns (``tree.query`` per type tree, exact): the composed
  cell plan may change *how* the answer is collected, never *what* it
  contains.
* **Cell-size sweep** — one fixed polygon planned at several cell
  sizes, each over a fresh portal, cold run then warm run.  Gates: on
  the warm grid every interior cell is served from the mirror with
  **zero** interior probes (exact tree work happens only at boundary
  cells), and the boundary fraction of the cover shrinks as cells
  shrink — probes track the boundary fraction, not the cover size.
* **Sliding window** — a viewport panning one cell per step must reuse
  exactly the overlap of consecutive covers (symmetric-difference
  recompute, revalidated not trusted) and refresh only the enter
  strip; gate on exact reuse accounting and on the steady-state reused
  fraction.

The polygon stream itself (``repro.workloads.polygons``) also runs
cold-then-warm end to end for throughput/shape reporting.
``--quick`` shrinks the fleet; every gate is still checked.

Run with ``PYTHONPATH=src python -m repro.bench geoblocks``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.federation import _assert_identical, make_federation
from repro.bench.fleets import EXTENT, uncapped_portal
from repro.bench.frontdoor import make_livelocal_portal
from repro.bench.report import StreamSummary, timed
from repro.bench.runner import Bench
from repro.geoblocks import GeoBlockConfig, PolygonResult, SlidingWindow
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cells_covering
from repro.portal import SensorMapPortal, SensorQuery
from repro.workloads import CITIES, LiveLocalWorkload, PolygonWorkload

STALENESS = 900.0
SENSOR_TYPE = "restaurant"  # the Live-Local fleet's type
# Bench grid cell edge: city-boundary polygons span 5-40 miles
# (~0.1-1.2 degrees), so 0.2-degree cells give the bigger polygons a
# genuine probe-free interior while staying far under the planner's
# cell budget.
CELL_DEGREES = 0.2


def _rect_as_polygon(rect: Rect) -> Polygon:
    return Polygon(
        [
            GeoPoint(rect.min_x, rect.min_y),
            GeoPoint(rect.max_x, rect.min_y),
            GeoPoint(rect.max_x, rect.max_y),
            GeoPoint(rect.min_x, rect.max_y),
        ]
    )


def make_polygon_portal(
    n_sensors: int, seed: int, cell_degrees: float = CELL_DEGREES
) -> SensorMapPortal:
    """The Live-Local fleet behind an uncapped portal with a geoblock
    grid."""
    return uncapped_portal(
        LiveLocalWorkload(
            n_sensors=n_sensors, expiry_seconds=2.0 * STALENESS, seed=seed
        ).sensors(),
        geoblocks=GeoBlockConfig(cell_degrees=cell_degrees),
    )


def _sensor_ids(answers) -> set[int]:
    return {
        r.sensor_id
        for a in answers
        for r in list(a.probed_readings) + list(a.cached_readings)
    }


# ----------------------------------------------------------------------
# Probe 1: rectangle parity (single portal + federated)
# ----------------------------------------------------------------------
def run_parity_probe(n_sensors: int, seed: int, n_shards: int = 4) -> dict:
    """A rectangle drawn as a polygon must be answered bit-identically
    to the ``Rect`` — cold and warm, unsharded and federated."""
    rects = [
        spec.region
        for spec in LiveLocalWorkload(
            n_sensors=n_sensors, n_queries=6, seed=seed + 5
        ).queries()
    ]

    # Twin identical fleets: the rectangle path never touches the grid,
    # so the polygon side needs no geoblock config — only the same
    # sensors in the same order.
    single_cells = 0
    portal_a = make_livelocal_portal(n_sensors, seed)
    portal_b = make_livelocal_portal(n_sensors, seed)
    for i, rect in enumerate(rects):
        rect_query = SensorQuery(region=rect, staleness_seconds=STALENESS)
        poly_query = SensorQuery(
            region=_rect_as_polygon(rect), staleness_seconds=STALENESS
        )
        for phase in ("cold", "warm"):
            _assert_identical(
                f"rect-parity/single/{phase}/q{i}",
                portal_a.execute(rect_query),
                portal_b.execute(poly_query),
            )
            single_cells += 1

    # Federated: a rectangle-polygon must normalize before any routing
    # or clipping happens.
    rng = np.random.default_rng(seed + 9)
    fed_a = make_federation(n_sensors, seed, n_shards)
    fed_b = make_federation(n_sensors, seed, n_shards)
    federated_cells = 0
    for i in range(4):
        cx = float(rng.uniform(15.0, EXTENT - 15.0))
        cy = float(rng.uniform(15.0, EXTENT - 15.0))
        half = float(rng.uniform(10.0, 25.0))
        rect = Rect(cx - half, cy - half, cx + half, cy + half)
        rect_query = SensorQuery(region=rect, staleness_seconds=120.0)
        poly_query = SensorQuery(
            region=_rect_as_polygon(rect), staleness_seconds=120.0
        )
        for phase in ("cold", "warm"):
            _assert_identical(
                f"rect-parity/federated/{phase}/q{i}",
                fed_a.execute(rect_query),
                fed_b.execute(poly_query),
            )
            federated_cells += 1
    return {
        "n_sensors": n_sensors,
        "n_shards": n_shards,
        "single_cells": single_cells,
        "federated_cells": federated_cells,
    }


# ----------------------------------------------------------------------
# Probe 2: conservation on genuine polygons
# ----------------------------------------------------------------------
def run_conservation_probe(
    n_sensors: int, seed: int, n_polygons: int = 12
) -> dict:
    """The cell plan changes how the answer is collected, never what it
    contains: twin fresh portals, one answering through the geoblock
    planner and one through the plain tree traversal, must return
    exactly the same sensor-id sets for every workload family."""
    workload = PolygonWorkload(
        n_sensors=n_sensors,
        n_queries=n_polygons,
        expiry_seconds=2.0 * STALENESS,
        revisit_probability=0.0,
        staleness_seconds=STALENESS,
        seed=seed,
    )
    # Twin portals over the workload's own fleet (not merely same-seed
    # rebuilds): one composes through the cell plan, one answers with
    # one exact traversal per type tree.
    sensors = workload.sensors()
    portal_grid = uncapped_portal(
        sensors, geoblocks=GeoBlockConfig(cell_degrees=CELL_DEGREES)
    )
    portal_exact = uncapped_portal(sensors)
    trees = [portal_exact.tree(name) for name in portal_exact.sensor_types()]
    compared = 0
    mismatches = 0
    grid_path = 0
    by_family: dict[str, int] = {}
    for spec in workload.queries():
        query = SensorQuery(
            region=spec.region, staleness_seconds=spec.staleness_seconds
        )
        via_grid = portal_grid.execute(query)
        via_exact = [
            tree.query(
                query.region,
                now=portal_exact.clock.now(),
                max_staleness=query.staleness_seconds,
                sample_size=0,
            )
            for tree in trees
        ]
        if _sensor_ids(via_grid.answers) != _sensor_ids(via_exact):
            mismatches += 1
        if isinstance(via_grid, PolygonResult):
            grid_path += 1
        by_family[spec.family] = by_family.get(spec.family, 0) + 1
        compared += 1
    return {
        "n_sensors": n_sensors,
        "compared": compared,
        "mismatches": mismatches,
        "grid_path": grid_path,
        "by_family": by_family,
    }


# ----------------------------------------------------------------------
# Probe 3: cell-size sweep (probe-free interior, boundary fraction)
# ----------------------------------------------------------------------
def run_sweep_probe(
    n_sensors: int,
    seed: int,
    cell_sizes: Sequence[float] = (0.5, 0.2, 0.1),
) -> dict:
    """One fixed polygon planned at several cell sizes, each over a
    fresh portal: the cold run warms the grid through the tree's
    reading listeners, then the warm run must serve every interior cell
    from the mirror with zero interior probes.  Finer grids push more
    of the cover into the (probe-free) interior."""
    workload = PolygonWorkload(
        n_sensors=n_sensors,
        n_queries=8,
        expiry_seconds=2.0 * STALENESS,
        family_weights=(1.0, 0.0, 0.0),
        revisit_probability=0.0,
        staleness_seconds=STALENESS,
        seed=seed + 1,
    )
    # The largest city-boundary polygon of the batch: big enough to
    # have a genuine interior at every cell size in the sweep.
    region = max(
        (spec.region for spec in workload.queries()),
        key=lambda p: p.bounding_box.area,
    )
    query = SensorQuery(region=region, staleness_seconds=STALENESS)
    levels = []
    for cell_degrees in cell_sizes:
        portal = make_polygon_portal(n_sensors, seed, cell_degrees=cell_degrees)
        cold = portal.execute(query)
        warm = portal.execute(query)
        assert isinstance(cold, PolygonResult) and isinstance(warm, PolygonResult)
        total = warm.interior_cells + warm.boundary_cells
        levels.append(
            {
                "cell_degrees": cell_degrees,
                "interior_cells": warm.interior_cells,
                "boundary_cells": warm.boundary_cells,
                "boundary_fraction": warm.boundary_cells / max(1, total),
                "cold_grid_cells_served": cold.grid_cells_served,
                "cold_interior_probes": cold.interior_probes,
                "warm_grid_cells_served": warm.grid_cells_served,
                "warm_interior_probes": warm.interior_probes,
                "warm_sensors_probed": sum(
                    a.stats.sensors_probed for a in warm.answers
                ),
            }
        )
    return {
        "n_sensors": n_sensors,
        "bbox_area_degrees2": region.bounding_box.area,
        "levels": levels,
    }


# ----------------------------------------------------------------------
# Probe 4: sliding-window incrementality
# ----------------------------------------------------------------------
def run_window_probe(
    n_sensors: int,
    seed: int,
    viewport_cells: int = 5,
    steps: int = 8,
    step_seconds: float = 15.0,
    cell_degrees: float = 1.0,
) -> dict:
    """A viewport panning one cell east per step: each step must reuse
    exactly the cells shared with the previous cover and refresh only
    the enter strip."""
    portal = make_polygon_portal(n_sensors, seed, cell_degrees=cell_degrees)
    window = SlidingWindow(
        portal,
        staleness_seconds=STALENESS,
        sensor_type=SENSOR_TYPE,
        aggregate="avg",
        temporal_steps=3,
    )
    # Start over the densest metro in the fleet (New York) so the
    # window actually aggregates sensors, and pan east.
    anchor = max(CITIES, key=lambda c: c.population)
    span = viewport_cells * cell_degrees
    records = []
    prev_cover: set[tuple[int, int]] | None = None
    exact_reuse = True
    for step in range(steps):
        offset = step * cell_degrees
        rect = Rect(
            anchor.lon + offset,
            anchor.lat,
            anchor.lon + offset + span,
            anchor.lat + span,
        )
        result = window.step(rect)
        cover = set(cells_covering(rect, window.cell_degrees))
        expected_reuse = (
            len(cover & prev_cover) if prev_cover is not None else 0
        )
        if result.cells_reused != expected_reuse:
            exact_reuse = False
        if result.cells_reused + result.cells_refreshed != result.cells_total:
            exact_reuse = False
        records.append(
            {
                "step": step,
                "cells_total": result.cells_total,
                "cells_reused": result.cells_reused,
                "cells_refreshed": result.cells_refreshed,
                "expected_reuse": expected_reuse,
                "sensors": len(_sensor_ids(result.answers)),
                "window_aggregate": result.window_aggregate,
            }
        )
        prev_cover = cover
        portal.clock.advance(step_seconds)
    steady = records[1:]
    reused_fraction = (
        sum(r["cells_reused"] for r in steady)
        / max(1, sum(r["cells_total"] for r in steady))
    )
    return {
        "n_sensors": n_sensors,
        "viewport_cells": viewport_cells,
        "steps": steps,
        "exact_symmetric_difference": exact_reuse,
        "steady_reused_fraction": reused_fraction,
        "window_cells_reused_total": sum(r["cells_reused"] for r in records),
        "aggregated_any": any(r["window_aggregate"] is not None for r in records),
        "records": records,
    }


# ----------------------------------------------------------------------
# Probe 5 (reporting): the polygon stream, cold then warm
# ----------------------------------------------------------------------
def run_stream_probe(n_sensors: int, n_queries: int, seed: int) -> dict:
    """The full polygon workload through one portal, twice: the cold
    pass pays probes and warms the grid, the warm pass measures how
    much of the stream the mirror then serves."""
    workload = PolygonWorkload(
        n_sensors=n_sensors,
        n_queries=n_queries,
        expiry_seconds=2.0 * STALENESS,
        staleness_seconds=STALENESS,
        seed=seed,
    )
    portal = make_polygon_portal(n_sensors, seed)
    specs = workload.queries()
    out: dict = {"n_sensors": n_sensors, "n_queries": n_queries}
    t0 = portal.clock.now()
    for name in ("cold", "warm"):
        results = []
        for spec in specs:
            if name == "cold":
                target = t0 + spec.at_time
                if target > portal.clock.now():
                    portal.clock.advance(target - portal.clock.now())
            results.append(
                portal.execute(
                    SensorQuery(
                        region=spec.region,
                        staleness_seconds=spec.staleness_seconds,
                    )
                )
            )
        planned = [r for r in results if isinstance(r, PolygonResult)]
        out[name] = {
            "grid_path": len(planned),
            "interior_cells": sum(r.interior_cells for r in planned),
            "boundary_cells": sum(r.boundary_cells for r in planned),
            "grid_cells_served": sum(r.grid_cells_served for r in planned),
            "interior_probes": sum(r.interior_probes for r in planned),
            "interior_probe_free_queries": sum(
                r.interior_probes == 0 for r in planned
            ),
            "processing_seconds": StreamSummary(
                r.processing_seconds for r in results
            ).as_dict(),
        }
    return out


def run(n_sensors: int, n_queries: int, seed: int) -> dict:
    parity = timed(run_parity_probe, min(n_sensors, 4_000), seed)
    conservation = timed(run_conservation_probe, min(n_sensors, 8_000), seed)
    sweep = timed(run_sweep_probe, min(n_sensors, 8_000), seed)
    window = timed(run_window_probe, min(n_sensors, 8_000), seed)
    stream = timed(run_stream_probe, n_sensors, n_queries, seed)
    fractions = [level["boundary_fraction"] for level in sweep["levels"]]
    return {
        "phases": {
            "parity": parity,
            "conservation": conservation,
            "sweep": sweep,
            "window": window,
            "stream": stream,
        },
        "checks": {
            "rect_parity_single_portal": parity["single_cells"] > 0,
            "rect_parity_federated": parity["federated_cells"] > 0,
            "polygon_conservation": conservation["mismatches"] == 0
            and conservation["compared"] > 0,
            "warm_interior_probe_free": all(
                level["warm_interior_probes"] == 0 for level in sweep["levels"]
            )
            and stream["warm"]["interior_probes"] == 0,
            "warm_interior_grid_served": all(
                level["warm_grid_cells_served"] == level["interior_cells"]
                for level in sweep["levels"]
            ),
            "boundary_fraction_shrinks_with_cells": all(
                a >= b for a, b in zip(fractions, fractions[1:])
            )
            and fractions[-1] < fractions[0],
            "stream_warm_serves_interior_from_grid": stream["warm"][
                "grid_cells_served"
            ]
            > 0,
            "window_exact_symmetric_difference": window[
                "exact_symmetric_difference"
            ],
            "window_reused_fraction_ge_60pct": window["steady_reused_fraction"]
            >= 0.60,
        },
    }


BENCH = Bench(
    name="geoblocks",
    full={"n_sensors": 40_000, "n_queries": 300, "seed": 0},
    quick={"n_sensors": 2_500, "n_queries": 60, "seed": 0},
    run=run,
)
