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
from typing import Hashable, Sequence

import numpy as np

from repro.geometry.point import GeoPoint
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect

Cell = tuple[int, int]
# A block of cells by its first and last column and row, inclusive:
# ``(ix0, iy0, ix1, iy1)``.
Span = tuple[int, int, int, int]

# The front door's tile grid: square tiles of this many degrees a side.
# The fleet's occupancy summary (:func:`occupancy`) is kept at it too.
TILE_EXTENT_DEGREES = 0.5


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


# A point this many cells or more from the origin is *far*: there the
# floats of neighbouring cells' rectangles run together, so the cells
# holding it are not a short list.  Below it every column and row a
# point's cells are looked for at is an exact float.
_FAR_CELLS = 2.0**50


def occupancy(
    xs: Sequence[float],
    ys: Sequence[float],
    labels: Sequence[Hashable],
    extent: float,
) -> dict[Hashable, frozenset[Cell] | None]:
    """Per label, the cells whose closed rectangles (``cell_rect``'s
    floats under ``Rect.contains_point``'s test) hold at least one of
    the points carrying it, and under ``None`` the same over all the
    points.  A point on a cell line is in the cells on both sides of
    it, a point on a corner in all four; a non-finite point is in no
    cell.  A label with a far point (see :data:`_FAR_CELLS`) maps to
    ``None`` — not known — and so does the union.  Labels must not be
    ``None``.

    Vectorised: a point strictly inside its ``floor(v / extent)`` cell
    (the test ``TieredResultCache._locate`` makes) is in that cell
    alone; only the others test the closed rectangles of the cells
    either side of theirs."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    index = {label: code for code, label in enumerate(dict.fromkeys(labels))}
    if len(index) > 1:
        codes = np.fromiter(map(index.__getitem__, labels), np.intp, len(x))
    else:
        codes = np.zeros(len(x), dtype=np.intp)
    e = extent
    with np.errstate(over="ignore", invalid="ignore"):
        qx = x / e
        qy = y / e
    # False for a non-finite quotient, so a near point is finite.
    near = (np.abs(qx) < _FAR_CELLS) & (np.abs(qy) < _FAR_CELLS)
    far = set(codes[~near & np.isfinite(x) & np.isfinite(y)].tolist())
    if not near.all():
        x, y, qx, qy, codes = x[near], y[near], qx[near], qy[near], codes[near]
    fx = np.floor(qx)
    fy = np.floor(qy)
    inner = (fx * e < x) & (x < (fx + 1.0) * e) & (fy * e < y) & (y < (fy + 1.0) * e)
    parts = [(fx[inner], fy[inner], codes[inner])]
    odd = ~inner
    if odd.any():
        x, y, fx, fy, codes = x[odd], y[odd], fx[odd], fy[odd], codes[odd]
        for dx in (-1.0, 0.0, 1.0):
            cx = fx + dx
            in_column = (cx * e <= x) & (x <= (cx + 1.0) * e)
            for dy in (-1.0, 0.0, 1.0):
                cy = fy + dy
                held = in_column & (cy * e <= y) & (y <= (cy + 1.0) * e)
                parts.append((cx[held], cy[held], codes[held]))
    cx = np.concatenate([p[0] for p in parts]).astype(np.int64)
    cy = np.concatenate([p[1] for p in parts]).astype(np.int64)
    union = frozenset(zip(cx.tolist(), cy.tolist()))
    out: dict[Hashable, frozenset[Cell] | None] = {None: None if far else union}
    if len(index) == 1:
        (label,) = index
        out[label] = out[None]
    elif index:
        kc = np.concatenate([p[2] for p in parts])
        for label, code in index.items():
            held = kc == code
            out[label] = (
                None
                if code in far
                else frozenset(zip(cx[held].tolist(), cy[held].tolist()))
            )
    return out


# The raster's margin, in degrees, is this times (1 + the largest
# coordinate a cell of it reaches) / min(extent, 1).  It stands far
# above every rounding error and every on-segment tolerance the exact
# predicates apply (``Polygon._edge_table``), so a cell decided without
# them is decided as they would decide it.
_MARGIN = 1e-10


def rasterize(
    polygon: Polygon, extent: float, limit: int | None = None
) -> tuple[list[Cell], list[Cell]] | None:
    """A polygon's cells as ``(interior, boundary)``, each in scan
    order: *interior* cells lie wholly inside the polygon, *boundary*
    cells are the rest of the cells it shares a point with, exactly as
    ``contains_rect`` and then ``intersects_rect`` classify each closed
    cell of its bounding box's cover.  Cells of the cover that it misses
    entirely are in neither — for a non-convex polygon the two together
    are a strict subset of the box cover.  With a ``limit``, ``None``
    when the two hold more than ``limit`` cells: a span with more
    columns or rows than that is refused before any cell is looked at
    (a polygon shares a point with a cell of each), and the scan stops
    at the cell one past it.  Raises ``ValueError`` when the bounding
    box has no finite cover.

    A scanline over the polygon's edge table, at a cost set by the
    boundary rather than the box.  Per edge and per column it reaches,
    the rows within the edge's margin (see :data:`_MARGIN`; a short
    edge's widens with its on-segment tolerance) are *near* cells.  An
    edge that strictly crosses a grid line at a point more than the
    margin from every grid corner properly crosses a side of the two
    cells that side bounds, and the exact predicates find that crossing
    whatever the float rounding: both cells are *boundary*, with no
    predicate call.  Other near cells take the exact pair.  The cells of
    a column between near ones lie more than the margin from every edge,
    so each run of them is all inside or all outside the polygon, and
    one ``_contains_xy`` test at one cell centre decides the run."""
    bbox = polygon.bounding_box
    span = cover_span(bbox, extent)
    if span is None:
        raise ValueError(f"no finite cover at extent {extent}: {bbox}")
    ix0, iy0, ix1, iy1 = span
    if limit is not None and (ix1 - ix0 + 1 > limit or iy1 - iy0 + 1 > limit):
        return None
    e = extent
    reach = max(abs(bbox.min_x), abs(bbox.max_x), abs(bbox.min_y), abs(bbox.max_y))
    margin = _MARGIN * (1.0 + reach + e) / min(e, 1.0)
    floor = math.floor
    # One dict per column of the span: row -> True for a boundary cell
    # an edge crosses cleanly, False for a near cell.
    near: list[dict[int, bool]] = [{} for _ in range(ix1 - ix0 + 1)]
    for ax, ay, bx, by, dx, dy, tol, _, _, _, _ in polygon._edges:
        x_lo, x_hi = (ax, bx) if ax <= bx else (bx, ax)
        y_lo, y_hi = (ay, by) if ay <= by else (by, ay)
        # A point within the on-segment tolerance of a short edge can lie
        # up to min(4 * tol / length, length) from it.
        length = abs(dx) + abs(dy)
        m = margin
        if length:
            m += 4.0 * tol / length if 4.0 * tol < length * length else length
        slope = dy / dx if dx else 0.0
        # A run or a rise of a few ulps of 1e-308 makes the ratio overflow:
        # that edge is vertical (or flat) here, and every cell it can meet
        # is near, so it marks no clean crossing along that axis.
        steep = not math.isfinite(slope)
        c0 = floor((x_lo - m) / e)
        c1 = floor((x_hi + m) / e)
        for ix in range(c0 if c0 > ix0 else ix0, (c1 if c1 < ix1 else ix1) + 1):
            lo, hi = y_lo, y_hi
            if dx and not steep:
                # The edge's rows over the column widened by the margin.
                t = ix * e - m
                u = ay + ((t if t > x_lo else x_lo) - ax) * slope
                t = (ix + 1) * e + m
                v = ay + ((t if t < x_hi else x_hi) - ax) * slope
                lo, hi = (u, v) if u <= v else (v, u)
            r0 = floor((lo - m) / e)
            r1 = floor((hi + m) / e)
            column = near[ix - ix0]
            for iy in range(r0 if r0 > iy0 else iy0, (r1 if r1 < iy1 else iy1) + 1):
                column.setdefault(iy, False)
        run = dx / dy if dy else 0.0
        if dy and math.isfinite(run):
            # Row lines j * e the edge strictly crosses.
            r0 = floor(y_lo / e)
            r1 = floor(y_hi / e)
            for j in range(r0 if r0 > iy0 else iy0, (r1 if r1 < iy1 else iy1) + 2):
                y = j * e
                if y_lo < y < y_hi:
                    x = ax + (y - ay) * run
                    ix = floor(x / e)
                    if ix0 <= ix <= ix1 and ix * e + margin < x < (ix + 1) * e - margin:
                        column = near[ix - ix0]
                        if j > iy0:
                            column[j - 1] = True
                        if j <= iy1:
                            column[j] = True
        if dx and not steep:
            # Column lines i * e the edge strictly crosses.
            c0 = floor(x_lo / e)
            c1 = floor(x_hi / e)
            for i in range(c0 if c0 > ix0 else ix0, (c1 if c1 < ix1 else ix1) + 2):
                x = i * e
                if x_lo < x < x_hi:
                    y = ay + (x - ax) * slope
                    iy = floor(y / e)
                    if iy0 <= iy <= iy1 and iy * e + margin < y < (iy + 1) * e - margin:
                        if i > ix0:
                            near[i - 1 - ix0][iy] = True
                        if i <= ix1:
                            near[i - ix0][iy] = True
    interior: list[Cell] = []
    boundary: list[Cell] = []
    cap = math.inf if limit is None else limit
    contains = polygon._contains_xy
    for ix, column in enumerate(near, ix0):
        # A run below a column's first near cell or above its last, or
        # in the span's first or last column, is outside: were a cell of
        # it inside, the polygon would reach more than the margin past
        # its bounding box's cover.
        inner = ix0 < ix < ix1
        iy = None
        for row in sorted(column):
            if inner and iy is not None and iy < row:
                if contains((ix + 0.5) * e, (iy + 0.5) * e):
                    interior.extend((ix, r) for r in range(iy, row))
            if column[row]:
                boundary.append((ix, row))
            else:
                rect = cell_rect((ix, row), e)
                if polygon.contains_rect(rect):
                    interior.append((ix, row))
                elif polygon.intersects_rect(rect):
                    boundary.append((ix, row))
            if len(interior) + len(boundary) > cap:
                return None
            iy = row + 1
    return interior, boundary
