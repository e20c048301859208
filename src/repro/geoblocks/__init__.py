"""GeoBlocks-style polygon & analytic-window query subsystem.

COLR-Tree's native query surface is axis-aligned rectangles; this
package opens the city-boundary / watershed / corridor workload class.
Following GeoBlocks (Winter et al., arXiv:1908.07753) and Aggregate
Analytic Window Query over Spatial Data (Shi & Wang, arXiv:2007.14997),
it fuses a pre-aggregated **geoblock grid** with the COLR slot cache:

``GeoBlockGrid`` (:mod:`repro.geoblocks.grid`)
    A configurable-cell-size grid over the portal's sensor population.
    A cell stores only which sensors it owns; serving it reads those
    sensors' current entries from the leaf slot caches, so the grid is
    a view — nothing is copied, nothing is invalidated.

``plan_polygon`` (:mod:`repro.geoblocks.planner`)
    Rasterizes a polygon into fully *interior* cells (servable from the
    grid without probing) and *boundary* cells (the ring the outline
    passes through).

``plan_query`` / ``execute_polygon`` (:mod:`repro.geoblocks.executor`)
    What the portal's batch executor calls: ``plan_query`` decides,
    once per query, whether an exact polygon is planned;
    ``execute_polygon`` is the plan step — which interior cells the
    grid can serve, and the :class:`PolygonResult` counts.  The answer
    itself is one exact scan of the polygon, riding the tick's shared
    scan.  Any entry point reaches this path — there is no polygon
    method to call.

``SlidingWindow`` (:mod:`repro.geoblocks.windows`)
    Moving-viewport / k-step temporal analytic windows that reuse the
    previous step's still-valid cell aggregates and recompute only the
    symmetric difference (the enter/leave cell strips).
"""

from repro.geoblocks.config import GeoBlockConfig
from repro.geoblocks.grid import GeoBlockGrid
from repro.geoblocks.planner import CellPlan, plan_polygon
from repro.geoblocks.executor import PolygonResult
from repro.geoblocks.windows import SlidingWindow, WindowResult

__all__ = [
    "CellPlan",
    "GeoBlockConfig",
    "GeoBlockGrid",
    "PolygonResult",
    "SlidingWindow",
    "WindowResult",
    "plan_polygon",
]
