"""Polygon query execution: cell plan → per-tree composed answers.

The portal's batch executor (:mod:`repro.portal.batch`) asks
:func:`plan_query` once per query whether to answer it through a cell
plan; every query it is not planned for takes the plain traversal
(``Polygon`` implements the full Region protocol, so the tree answers it
exactly without the grid).  A planned polygon is rasterized by
:func:`repro.geoblocks.planner.plan_polygon`; interior cells are served
probe-free from the grid when their whole population is fresh in the
leaf slot caches (falling back to an exact per-cell tree query
otherwise), boundary cells run exact COLR sub-queries over the
Sutherland–Hodgman clip of the polygon to the cell.
:func:`execute_polygon` returns one composed answer per type tree and
the plan's counts; the batch executor builds the :class:`PolygonResult`.

Compose dedups sensors **by id** at shared cell edges: sub-queries use
closed cell geometry, so a sensor sitting exactly on an edge can answer
two adjacent cells; the first occurrence wins.  Boundary/interior
fallback sub-queries run with ``aggregate_termination=False`` so every
result is an identifiable per-sensor reading — an anonymous node-level
sketch could not be deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.lookup import QueryAnswer
from repro.geoblocks.planner import CellPlan, boundary_subregion, plan_polygon
from repro.geometry import Polygon
from repro.geometry.grid import cell_rect
from repro.portal.portal import PortalResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.tree import COLRTree
    from repro.portal.portal import SensorMapPortal
    from repro.portal.query import SensorQuery


@dataclass
class PolygonResult(PortalResult):
    """A composed polygon answer plus its cell-plan provenance.

    ``interior_cells`` / ``boundary_cells`` count plan cells summed over
    the per-type trees the query fanned out to (matching how the
    per-query stats counters accumulate); ``grid_cells_served`` of the
    interior cells were answered probe-free from the grid, and
    ``interior_probes`` counts live probes the interior fallbacks paid —
    zero on a warm grid, which the geoblocks bench gates on.
    """

    interior_cells: int = 0
    boundary_cells: int = 0
    grid_cells_served: int = 0
    interior_probes: int = 0


def plan_query(portal: "SensorMapPortal", query: "SensorQuery") -> CellPlan | None:
    """The cell plan ``query`` is answered through, or ``None`` for the
    plain traversal.  The compose is exact per sensor, so only a genuine
    polygon on an uncapped portal, exact and un-zoomed, is planned
    (grouping via ``cluster_miles`` composes fine — it groups the merged
    readings), and only when its cover fits the grid's cell budget."""
    region = query.region
    if not (
        isinstance(region, Polygon)
        and portal.max_sensors_per_query is None
        and query.sample_size in (None, 0)
        and query.zoom_level is None
    ):
        return None
    config = portal.geoblocks().config
    return plan_polygon(region, config.cell_degrees, config.max_cells_per_query)


def execute_polygon(
    portal: "SensorMapPortal",
    query: "SensorQuery",
    plan: CellPlan,
    trees: "Mapping[str, COLRTree]",
    now: float,
) -> tuple[list[QueryAnswer], tuple[int, int, int, int]]:
    """Answer one planned polygon on each of its type trees.

    Returns one composed answer per tree, in ``trees`` order, and the
    :class:`PolygonResult` counts: interior cells, boundary cells, grid
    cells served and interior probes."""
    grid = portal.geoblocks()
    region = query.region
    answers: list[QueryAnswer] = []
    grid_served = 0
    interior_probes = 0
    staleness = query.staleness_seconds
    for sensor_type, tree in trees.items():
        merged = QueryAnswer()
        seen: set[int] = set()

        def fold(sub: QueryAnswer) -> None:
            merged.stats.merge(sub.stats)
            merged.terminals.extend(sub.terminals)
            for reading in sub.probed_readings:
                if reading.sensor_id not in seen:
                    seen.add(reading.sensor_id)
                    merged.probed_readings.append(reading)
            for reading in sub.cached_readings:
                if reading.sensor_id not in seen:
                    seen.add(reading.sensor_id)
                    merged.cached_readings.append(reading)

        for cell in plan.interior:
            served = grid.serve_cell(sensor_type, cell, now, staleness)
            if served is not None:
                grid_served += 1
                # Scanning the cell's entries is the modeled work of a
                # grid serve — the same per-reading charge the leaf
                # caches pay, with no traversal and no probes.
                merged.stats.readings_scanned += len(served)
                for reading in served:
                    if reading.sensor_id not in seen:
                        seen.add(reading.sensor_id)
                        merged.cached_readings.append(reading)
            else:
                sub = tree.query(
                    cell_rect(cell, plan.cell_degrees),
                    now=now,
                    max_staleness=staleness,
                    sample_size=0,
                    aggregate_termination=False,
                )
                interior_probes += sub.stats.sensors_probed
                fold(sub)
        for cell in plan.boundary:
            sub = tree.query(
                boundary_subregion(region, cell, plan.cell_degrees),
                now=now,
                max_staleness=staleness,
                sample_size=0,
                aggregate_termination=False,
            )
            fold(sub)
        merged.stats.polygon_cells_interior += len(plan.interior)
        merged.stats.polygon_cells_boundary += len(plan.boundary)
        answers.append(merged)
    interior = len(plan.interior) * len(trees)
    boundary = len(plan.boundary) * len(trees)
    net = portal.network.stats
    net.polygon_cells_interior += interior
    net.polygon_cells_boundary += boundary
    return answers, (interior, boundary, grid_served, interior_probes)
