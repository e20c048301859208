"""Polygon query planning: a polygon's cell plan, and its provenance.

The portal's batch executor (:mod:`repro.portal.batch`) asks
:func:`plan_query` once per query whether an exact polygon is planned on
the geoblock grid.  A planned polygon is answered like every other exact
query: one scan of the polygon itself (``Polygon`` implements the full
Region protocol), riding the tick's shared scan, with per-sensor answers
(``aggregate_termination=False``).  That is exact, and it is what the
grid would serve: an interior cell is servable only when every sensor in
it holds a fresh entry in the leaf slot caches
(:meth:`~repro.geoblocks.grid.GeoBlockGrid.serve_cell`), and the grid is
a view over those same caches, so the traversal returns those readings
from cache with no probe — and each in-polygon sensor exactly once.

The plan is provenance.  :func:`repro.geoblocks.planner.plan_polygon`
rasterizes the polygon into interior and boundary cells, and
:func:`execute_polygon` — the plan step, run as the tick begins — checks
which interior cells the grid can serve and produces the
:class:`PolygonResult` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.geoblocks.planner import CellPlan, plan_polygon
from repro.geometry import Polygon
from repro.portal.portal import PortalResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.tree import COLRTree
    from repro.portal.portal import SensorMapPortal
    from repro.portal.query import SensorQuery


@dataclass
class PolygonResult(PortalResult):
    """A planned polygon's answer plus its cell-plan provenance.

    Every count sums over the per-type trees the query fanned out to,
    and no stats class repeats it:

    - ``interior_cells`` / ``boundary_cells``: the plan's cells;
    - ``grid_cells_served``: interior cells whose whole population was
      fresh in the leaf slot caches when the tick began;
    - ``interior_probes``: this query's probes of sensors whose
      half-open cell is interior — zero on a warm grid, which the
      geoblocks bench gates on.
    """

    interior_cells: int = 0
    boundary_cells: int = 0
    grid_cells_served: int = 0
    interior_probes: int = 0


def plan_query(portal: "SensorMapPortal", query: "SensorQuery") -> CellPlan | None:
    """The cell plan of ``query``, or ``None`` when it is not planned.
    Only a genuine polygon on an uncapped portal, exact and un-zoomed,
    is planned (grouping via ``cluster_miles`` is fine — it groups the
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
) -> tuple[list[int], set[int]]:
    """The plan step of one planned polygon, run before any probe of its
    tick lands in the slot caches.

    Returns the :class:`PolygonResult` counts — interior cells, boundary
    cells, grid cells served, interior probes — and the ids of the
    sensors of every interior cell the grid cannot serve.  The probe
    count starts at zero: the batch executor adds the query's own
    probes of those sensors once its scan has run.  (A sensor of a
    servable cell is fresh for the whole tick, so it is never probed.)"""
    grid = portal.geoblocks()
    staleness = query.staleness_seconds
    served = 0
    unserved: set[int] = set()
    for sensor_type in trees:
        for cell in plan.interior:
            if grid.serve_cell(sensor_type, cell, now, staleness) is not None:
                served += 1
            else:
                unserved.update(grid.cell_state(sensor_type, cell).population)
    interior = len(plan.interior) * len(trees)
    boundary = len(plan.boundary) * len(trees)
    return [interior, boundary, served, 0], unserved
