"""Polygon rasterization onto the geoblock grid.

A planned polygon's cells are its provenance: cells fully inside the
polygon (*interior*) are the ones the grid can serve probe-free, cells
the polygon boundary passes through (*boundary*) ring them.  The answer
itself is one exact scan of the polygon (:mod:`repro.geoblocks.executor`).

The grid arithmetic (half-open cell ownership of a *sensor*, closed
cell *geometry*, the interior/boundary raster) is
:mod:`repro.geometry.grid`, shared with the front door's tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry import Polygon
from repro.geometry.grid import rasterize


@dataclass(frozen=True)
class CellPlan:
    """One polygon's rasterization: interior and boundary cells, both in
    deterministic (ix, iy) scan order."""

    cell_degrees: float
    interior: tuple[tuple[int, int], ...]
    boundary: tuple[tuple[int, int], ...]


def plan_polygon(
    polygon: Polygon, cell_degrees: float, max_cells: int
) -> CellPlan | None:
    """Rasterize a polygon into interior/boundary cells, or ``None``
    when its bounding box covers more than ``max_cells`` cells (the
    caller falls back to the exact un-gridded path — covers are never
    truncated)."""
    c = cell_degrees
    bbox = polygon.bounding_box
    nx = max(1, math.ceil(bbox.max_x / c) - math.floor(bbox.min_x / c))
    ny = max(1, math.ceil(bbox.max_y / c) - math.floor(bbox.min_y / c))
    if nx * ny > max_cells:
        return None
    interior, boundary = rasterize(polygon, c)
    return CellPlan(
        cell_degrees=c, interior=tuple(interior), boundary=tuple(boundary)
    )
