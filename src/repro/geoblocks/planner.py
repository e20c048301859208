"""Polygon rasterization onto the geoblock grid.

A polygon query is answered cell-by-cell: cells fully inside the
polygon (*interior*) are candidates for probe-free serving from the
grid, cells the polygon boundary passes through (*boundary*)
delegate to exact COLR-Tree sub-queries over the Sutherland–Hodgman
clip of the polygon to the cell rectangle.

The grid arithmetic (half-open cell ownership of a *sensor*, closed
cell *geometry*, the interior/boundary raster) is
:mod:`repro.geometry.grid`, shared with the front door's tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cell_rect, rasterize


@dataclass(frozen=True)
class CellPlan:
    """One polygon's rasterization: interior and boundary cells, both in
    deterministic (ix, iy) scan order."""

    cell_degrees: float
    interior: tuple[tuple[int, int], ...]
    boundary: tuple[tuple[int, int], ...]

    @property
    def total_cells(self) -> int:
        return len(self.interior) + len(self.boundary)

    @property
    def boundary_fraction(self) -> float:
        total = self.total_cells
        return len(self.boundary) / total if total else 0.0


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


@dataclass(frozen=True)
class CellClipRegion:
    """Fallback boundary-cell region for degenerate clips.

    When ``polygon.clip_to_rect(cell)`` reports a measure-zero overlap
    (the polygon only touches the cell along an edge or at a corner),
    sensors sitting exactly on that touch line are still inside the
    closed polygon.  This region answers the three Region-protocol
    predicates as the *conjunction* of the cell rectangle and the
    polygon, which is exact for containment and conservatively correct
    for intersection (over-approximation only widens traversal; leaves
    filter by ``contains_point``).
    """

    polygon: Polygon
    rect: Rect

    @property
    def bounding_box(self) -> Rect:
        """The conjunction lies within the cell, so the cell rectangle
        is a (tight enough) bounding box — required by the tree's
        region protocol for traversal pruning."""
        return self.rect

    def contains_point(self, p: GeoPoint) -> bool:
        return self.rect.contains_point(p) and self.polygon.contains_point(p)

    def intersects_rect(self, rect: Rect) -> bool:
        return self.rect.intersects(rect) and self.polygon.intersects_rect(rect)

    def contains_rect(self, rect: Rect) -> bool:
        return self.rect.contains_rect(rect) and self.polygon.contains_rect(rect)


def boundary_subregion(
    polygon: Polygon, cell: tuple[int, int], cell_degrees: float
) -> Polygon | CellClipRegion:
    """The exact sub-query region of one boundary cell: the
    Sutherland–Hodgman clip of the polygon to the cell, or the
    conjunction fallback when the clip degenerates to zero area."""
    rect = cell_rect(cell, cell_degrees)
    clipped = polygon.clip_to_rect(rect)
    if clipped is not None:
        return clipped
    return CellClipRegion(polygon=polygon, rect=rect)
