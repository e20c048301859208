"""The one square grid behind geoblock cells and front-door tiles.

A grid of side ``extent`` names its cells ``(ix, iy)``.  A *point*
belongs to exactly one cell, the half-open square ``[ix*e, (ix+1)*e) x
[iy*e, (iy+1)*e)``, so a grid partitions a sensor population.  Cell
*geometry* (covers, classification, clipping, sub-query regions) uses
the closed square; the overlap that leaves at shared edges is removed
by whoever composes per-cell answers, by sensor id.
"""

from __future__ import annotations

import math

from repro.geometry.point import GeoPoint
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect

Cell = tuple[int, int]
# A block of cells by its first and last column and row, inclusive:
# ``(ix0, iy0, ix1, iy1)``.
Span = tuple[int, int, int, int]


def cell_of_point(p: GeoPoint, extent: float) -> Cell:
    """The (half-open) cell owning a point."""
    return (math.floor(p.x / extent), math.floor(p.y / extent))


def cell_rect(cell: Cell, extent: float) -> Rect:
    """The closed rectangle of one cell."""
    ix, iy = cell
    e = extent
    return Rect(ix * e, iy * e, (ix + 1) * e, (iy + 1) * e)


def cover_span(bbox: Rect, extent: float) -> Span | None:
    """The first and last columns and rows of the cells whose closed
    rectangles cover a rectangle, in O(1) whatever its size, or ``None``
    when an edge has no finite cell (an unbounded rectangle has no
    finite cover).  An edge landing exactly on a cell boundary does not
    drag in the next (measure-zero-overlap) cell."""
    e = extent
    try:
        ix0 = math.floor(bbox.min_x / e)
        iy0 = math.floor(bbox.min_y / e)
        ix1 = max(ix0, math.ceil(bbox.max_x / e) - 1)
        iy1 = max(iy0, math.ceil(bbox.max_y / e) - 1)
    except OverflowError:
        return None
    return ix0, iy0, ix1, iy1


def span_bounds(span: Span, extent: float) -> tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of the union of a span's closed
    cells: its first cell's low corner and its last cell's high one, by
    ``cell_rect``'s arithmetic."""
    ix0, iy0, ix1, iy1 = span
    return ix0 * extent, iy0 * extent, (ix1 + 1) * extent, (iy1 + 1) * extent


def cells_covering(bbox: Rect, extent: float) -> list[Cell]:
    """The cells of :func:`cover_span`, in ``(ix, iy)`` scan order.
    Raises ``ValueError`` for an unbounded rectangle."""
    span = cover_span(bbox, extent)
    if span is None:
        raise ValueError(f"an unbounded rectangle has no finite cover: {bbox}")
    ix0, iy0, ix1, iy1 = span
    return [(ix, iy) for ix in range(ix0, ix1 + 1) for iy in range(iy0, iy1 + 1)]


def rasterize(polygon: Polygon, extent: float) -> tuple[list[Cell], list[Cell]]:
    """A polygon's cells as ``(interior, boundary)``, each in scan
    order: *interior* cells lie wholly inside the polygon, *boundary*
    cells are the rest of the cells it shares a point with.  Cells of
    its bounding box's cover that it misses entirely are in neither —
    for a non-convex polygon the two together are a strict subset of
    the box cover."""
    interior: list[Cell] = []
    boundary: list[Cell] = []
    for cell in cells_covering(polygon.bounding_box, extent):
        rect = cell_rect(cell, extent)
        if polygon.contains_rect(rect):
            interior.append(cell)
        elif polygon.intersects_rect(rect):
            boundary.append(cell)
    return interior, boundary
