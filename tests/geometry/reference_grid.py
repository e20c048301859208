"""The per-cell polygon raster, kept as the test oracle.

Until the scanline raster ``repro.geometry.grid.rasterize`` classified
every cell of a polygon's bounding-box cover with ``contains_rect`` and
then ``intersects_rect``, and the front door applied its tile cap to the
finished lists.  The loop below is the replaced body verbatim;
``tests/property/test_rasterize_props.py`` holds the scanline to it
list for list, in scan order, and ``limited`` is the cap as it was
applied: the whole raster made, then refused when over ``limit``.
"""

from __future__ import annotations

from repro.geometry import Polygon
from repro.geometry.grid import Cell, cell_rect, cells_covering


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


def limited(
    polygon: Polygon, extent: float, limit: int
) -> tuple[list[Cell], list[Cell]] | None:
    """The full raster, or ``None`` when it holds more than ``limit``
    cells."""
    interior, boundary = rasterize(polygon, extent)
    return None if len(interior) + len(boundary) > limit else (interior, boundary)
