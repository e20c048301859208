"""Polygon query execution: cell plan → composed ``PolygonResult``.

The executor is the portal-side half of the geoblock subsystem:

1. An axis-aligned **rectangular polygon** is detected up front and
   dispatched down the plain rectangle path — ``execute_polygon`` on
   such a region is bit-identical (answer, probes, stats) to
   ``execute`` on the equivalent ``Rect``.
2. An eligible genuine polygon (exact, un-zoomed query on an uncapped
   portal) is rasterized by :func:`repro.geoblocks.planner.plan_polygon`;
   interior cells are served probe-free from the grid when their whole
   population is fresh in the leaf slot caches (falling back to an exact
   per-cell tree query otherwise), boundary cells run exact COLR sub-queries over the
   Sutherland–Hodgman clip of the polygon to the cell.
3. Everything else (sampled, zoomed, capped) falls back to
   ``portal.execute`` — ``Polygon`` implements the full Region
   protocol, so the tree answers it exactly without the grid.

Compose dedups sensors **by id** at shared cell edges: sub-queries use
closed cell geometry, so a sensor sitting exactly on an edge can answer
two adjacent cells; the first occurrence wins.  Boundary/interior
fallback sub-queries run with ``aggregate_termination=False`` so every
result is an identifiable per-sensor reading — an anonymous node-level
sketch could not be deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.lookup import QueryAnswer
from repro.geoblocks.planner import boundary_subregion, plan_polygon
from repro.geometry import Polygon, Rect
from repro.geometry.grid import cell_rect
from repro.portal.portal import PortalResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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


def grid_eligible(portal: "SensorMapPortal", query: "SensorQuery") -> bool:
    """Whether the geoblock fast path may serve this query: the compose
    is exact per-sensor, so the portal must be uncapped and the query
    exact and un-zoomed (grouping via ``cluster_miles`` composes fine —
    it groups the merged readings)."""
    return (
        portal.max_sensors_per_query is None
        and query.sample_size in (None, 0)
        and query.zoom_level is None
    )


def execute_polygon(
    portal: "SensorMapPortal", query: "SensorQuery"
) -> PortalResult:
    """Execute a polygon viewport against one portal (see module doc)."""
    region = query.region
    if isinstance(region, Rect):
        return portal.execute(query)
    assert isinstance(region, Polygon)
    rect = region.as_rect()
    if rect is not None:
        # Rectangle drawn as a polygon: the rectangle path *is* the
        # exact answer, and normalizing the region keeps the result
        # (including its query field) bit-identical to execute().
        return portal.execute(replace(query, region=rect))
    if not grid_eligible(portal, query):
        return portal.execute(query)
    grid = portal.geoblocks()
    plan = plan_polygon(
        region, grid.config.cell_degrees, grid.config.max_cells_per_query
    )
    if plan is None:
        return portal.execute(query)

    portal._ensure_index()
    now = portal.clock.now()
    trees, _ = portal._resolve(query)

    from repro.portal.grouping import concat_groups, group_answer

    answers: list[QueryAnswer] = []
    groups = []
    processing = 0.0
    collection = 0.0
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
        processing += portal.cost_model.processing_seconds(merged.stats)
        collection += merged.stats.collection_latency_seconds
        groups.append(group_answer(merged, query.cluster_miles, tree=tree))
    net = portal.network.stats
    net.polygon_cells_interior += len(plan.interior) * len(trees)
    net.polygon_cells_boundary += len(plan.boundary) * len(trees)
    return PolygonResult(
        query=query,
        groups=concat_groups(groups),
        answers=answers,
        processing_seconds=processing,
        collection_seconds=collection,
        sample_requested=None,
        interior_cells=len(plan.interior) * len(trees),
        boundary_cells=len(plan.boundary) * len(trees),
        grid_cells_served=grid_served,
        interior_probes=interior_probes,
    )
