"""Simple polygons for ``WITHIN Polygon(<lat,long>)`` query regions.

SensorMap users may draw arbitrary polygonal regions of interest; the
portal's query dialect carries them as a vertex list.  Internally the
index prunes with the polygon's bounding box (rectangle math is cheap)
and only falls back to exact point-in-polygon / rectangle-relation tests
where the bounding box is ambiguous.

The exact tests read a per-polygon *edge table* built once at
construction: one row of plain floats per edge, holding everything a
test would otherwise re-derive from two ``GeoPoint``s for every point
and every rectangle.  A polygon is paid for once, when it is drawn or
clipped, and per edge afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.point import GeoPoint
from repro.geometry.rect import Rect

# One edge a -> b of the ring:
#   ax, ay, bx, by, bx - ax, by - ay,
#   the on-segment tolerance 1e-12 * (1 + |ax| + |bx| + |ay| + |by|),
#   the on-segment box min(ax, bx) - 1e-12, max(ax, bx) + 1e-12,
#                      min(ay, by) - 1e-12, max(ay, by) + 1e-12.
# A point p is *on* the edge when it is in the box and
# |orient(a, b, p)| = |dx * (py - ay) - dy * (px - ax)| is within the
# tolerance.
_EdgeRow = tuple[float, ...]

# Points times edges a block of ``contains_points`` band-tests at once.
_ARRAY_BLOCK = 1 << 16


@dataclass(frozen=True)
class Polygon:
    """A simple (non self-intersecting) polygon given by its vertices.

    The vertex ring may be given in either winding order and need not be
    explicitly closed.  At least three vertices are required, all finite.
    Equality, hashing and pickling go by ``vertices`` alone; the
    bounding box and the edge table are rebuilt from them, and the
    edge table's array form is built by the first
    :meth:`contains_points` call.
    """

    vertices: tuple[GeoPoint, ...]
    _bbox: Rect = field(init=False, repr=False, compare=False)
    _edges: tuple[_EdgeRow, ...] = field(init=False, repr=False, compare=False)
    # ``_edges`` as one float64 row per column, one entry per edge.
    _table: "np.ndarray | None" = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Iterable[GeoPoint]) -> None:
        verts = tuple(vertices)
        if len(verts) >= 2 and verts[0] == verts[-1]:
            verts = verts[:-1]
        if len(verts) < 3:
            raise ValueError("a polygon needs at least 3 distinct vertices")
        xs = [v.x for v in verts]
        ys = [v.y for v in verts]
        # min()/max() hide a NaN that is not the first vertex, so the
        # bounding box cannot be trusted to reject it.
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            raise ValueError(f"polygon vertices must be finite, got {verts}")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_bbox", Rect(min(xs), min(ys), max(xs), max(ys)))
        object.__setattr__(self, "_edges", _edge_table(xs, ys))
        object.__setattr__(self, "_table", None)

    def __reduce__(self):
        # Vertices only: the default would ship the edge table (~100 B
        # an edge) in every sub-query frame that crosses the op pipe.
        return (type(self), (self.vertices,))

    @classmethod
    def from_latlon_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "Polygon":
        """Build from ``(lat, lon)`` pairs, the order used by the paper's
        query dialect (``Polygon(<lat,long>)``)."""
        return cls(GeoPoint(lon, lat) for lat, lon in pairs)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def bounding_box(self) -> Rect:
        return self._bbox

    @property
    def area(self) -> float:
        """Unsigned area via the shoelace formula."""
        return _ring_area(self.vertices)

    def as_rect(self) -> "Rect | None":
        """The equivalent axis-aligned rectangle, when this polygon is
        exactly one (its four vertices are the four corners of its own
        bounding box), else ``None``.

        ``repro.portal.query.normalize_region`` uses this to answer a
        rectangle drawn as a polygon as the ``Rect`` itself, bit for bit.
        Degenerate (zero-area) rings are never rectangles.
        """
        if len(self.vertices) != 4:
            return None
        bbox = self._bbox
        if bbox.area <= 0.0:
            return None
        corners = {(c.x, c.y) for c in bbox.corners()}
        if {(v.x, v.y) for v in self.vertices} != corners:
            return None
        return bbox

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def contains_point(self, p: GeoPoint) -> bool:
        """Even-odd point-in-polygon test; boundary points count inside."""
        return self._contains_xy(p.x, p.y)

    def _contains_xy(self, px: float, py: float) -> bool:
        """``contains_point`` on bare coordinates.  One pass over the
        edge table: a point on any edge is inside, otherwise the parity
        of the edges a ray towards +x crosses decides."""
        bbox = self._bbox
        if not (bbox.min_x <= px <= bbox.max_x and bbox.min_y <= py <= bbox.max_y):
            return False
        inside = False
        for ax, ay, _, by, dx, dy, tol, lo_x, hi_x, lo_y, hi_y in self._edges:
            if (
                lo_x <= px <= hi_x
                and lo_y <= py <= hi_y
                and not abs(dx * (py - ay) - dy * (px - ax)) > tol
            ):
                return True
            if (ay > py) != (by > py) and px < ax + (py - ay) * dx / dy:
                inside = not inside
        return inside

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`contains_point` over float64 coordinate arrays: a bool
        array, verdict for verdict the scalar :meth:`_contains_xy`'s.
        It runs the same bbox gate, then the same on-edge and crossing
        expressions, in the same operand order, for every (point, edge)
        pair the gate admits whose point lies within the edge's
        on-segment ``lo_y <= py <= hi_y`` band.  Outside the band
        neither test can pass: the on-edge test requires it, and an
        edge straddles ``py`` (``(ay > py) != (by > py)``) only when
        ``min(ay, by) <= py < max(ay, by)``, inside the band.  So the
        point's verdict is ``True`` when a pair is on its edge, else
        the parity of its pairs' crossings.  A pair whose edge does not
        straddle may divide by ``dy == 0``; its quotient is discarded,
        as the scalar test never computes it.  Non-finite points fail
        the gate, as they do there."""
        bbox = self._bbox
        verdict = np.zeros(len(xs), dtype=bool)
        gate = np.flatnonzero(
            (bbox.min_x <= xs) & (xs <= bbox.max_x) & (bbox.min_y <= ys) & (ys <= bbox.max_y)
        )
        if not len(gate):
            return verdict
        edges = self._edges
        table = self._table
        if table is None:
            table = np.fromiter(
                chain.from_iterable(edges), np.float64, len(edges) * len(edges[0])
            ).reshape(len(edges), -1).T.copy()
            object.__setattr__(self, "_table", table)
        # Rows 9 and 10 are the band's ``lo_y`` and ``hi_y``.
        lo_y, hi_y = table[9][:, None], table[10][:, None]
        # Blocks of points bound the (edges x points) band test.
        step = max(1, _ARRAY_BLOCK // len(edges))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for start in range(0, len(gate), step):
                at = gate[start : start + step]
                px, py = xs[at], ys[at]
                edge, point = np.nonzero((lo_y <= py) & (py <= hi_y))
                ax, ay, _, by, dx, dy, tol, lo_x, hi_x, _, _ = table[:, edge]
                qx, qy = px[point], py[point]
                on = (
                    (lo_x <= qx)
                    & (qx <= hi_x)
                    & ~(np.abs(dx * (qy - ay) - dy * (qx - ax)) > tol)
                )
                crosses = ((ay > qy) != (by > qy)) & (qx < ax + (qy - ay) * dx / dy)
                hit = np.bincount(point[crosses], minlength=len(at)) % 2 == 1
                hit[point[on]] = True
                verdict[at] = hit
        return verdict

    def intersects_rect(self, rect: Rect) -> bool:
        """True when the polygon and the rectangle share any point."""
        if not self._bbox.intersects(rect):
            return False
        # Any polygon vertex inside the rect, or any rect corner inside
        # the polygon, or any edge pair crossing or touching.
        x0, y0, x1, y1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        for row in self._edges:
            if x0 <= row[0] <= x1 and y0 <= row[1] <= y1:
                return True
        contains = self._contains_xy
        if contains(x0, y0) or contains(x1, y0) or contains(x1, y1) or contains(x0, y1):
            return True
        return self._edges_meet(x0, y0, x1, y1, touching=True)

    def _edges_meet(
        self, x0: float, y0: float, x1: float, y1: float, touching: bool
    ) -> bool:
        """True when a polygon edge *properly crosses* an edge of the
        rectangle ``[x0, x1] x [y0, y1]`` (the two cross at a point
        interior to both) or, with ``touching``, when an endpoint of one
        lies on the other.

        The rectangle's edges run c0 -> c1 -> c2 -> c3 -> c0 through its
        corners counterclockwise from the lower-left.  For a polygon
        edge ab and a rectangle edge cd the two segments properly cross
        when c and d lie strictly on opposite sides of ab *and* a and b
        strictly on opposite sides of cd.  The four corners' sides of ab
        are computed once per polygon edge and serve all four rectangle
        edges; the second half is looked at only for a rectangle edge
        whose corners ab separates.  Every pair's verdict is a
        conjunction of comparisons on the same float expressions
        whatever the order, and the answer is a disjunction over pairs,
        so neither the sharing nor the laziness can change it.
        """
        # d - c for the four rectangle edges.
        ex0, ey0 = x1 - x0, y0 - y0
        ex1, ey1 = x1 - x1, y1 - y0
        ex2, ey2 = x0 - x1, y1 - y1
        ex3, ey3 = x0 - x0, y0 - y1
        if touching:
            # The rectangle edges' own on-segment tolerances and boxes.
            abs_x0, abs_x1, abs_y0, abs_y1 = abs(x0), abs(x1), abs(y0), abs(y1)
            tol0 = 1e-12 * (1.0 + abs_x0 + abs_x1 + abs_y0 + abs_y0)
            tol1 = 1e-12 * (1.0 + abs_x1 + abs_x1 + abs_y0 + abs_y1)
            tol2 = 1e-12 * (1.0 + abs_x1 + abs_x0 + abs_y1 + abs_y1)
            tol3 = 1e-12 * (1.0 + abs_x0 + abs_x0 + abs_y1 + abs_y0)
            x0_lo, x0_hi, x1_lo, x1_hi = x0 - 1e-12, x0 + 1e-12, x1 - 1e-12, x1 + 1e-12
            y0_lo, y0_hi, y1_lo, y1_hi = y0 - 1e-12, y0 + 1e-12, y1 - 1e-12, y1 + 1e-12
        for ax, ay, bx, by, dx, dy, tol, lo_x, hi_x, lo_y, hi_y in self._edges:
            # orient(a, b, corner) for the four corners.
            tx0, tx1, ty0, ty1 = x0 - ax, x1 - ax, y0 - ay, y1 - ay
            o_c0 = dx * ty0 - dy * tx0
            o_c1 = dx * ty0 - dy * tx1
            o_c2 = dx * ty1 - dy * tx1
            o_c3 = dx * ty1 - dy * tx0
            s0, s1, s2, s3 = o_c0 > 0, o_c1 > 0, o_c2 > 0, o_c3 > 0
            if s0 != s1 and o_c0 != 0 and o_c1 != 0:
                o_a = ex0 * (ay - y0) - ey0 * (ax - x0)
                o_b = ex0 * (by - y0) - ey0 * (bx - x0)
                if (o_a > 0) != (o_b > 0) and o_a != 0 and o_b != 0:
                    return True
            if s1 != s2 and o_c1 != 0 and o_c2 != 0:
                o_a = ex1 * (ay - y0) - ey1 * (ax - x1)
                o_b = ex1 * (by - y0) - ey1 * (bx - x1)
                if (o_a > 0) != (o_b > 0) and o_a != 0 and o_b != 0:
                    return True
            if s2 != s3 and o_c2 != 0 and o_c3 != 0:
                o_a = ex2 * (ay - y1) - ey2 * (ax - x1)
                o_b = ex2 * (by - y1) - ey2 * (bx - x1)
                if (o_a > 0) != (o_b > 0) and o_a != 0 and o_b != 0:
                    return True
            if s3 != s0 and o_c3 != 0 and o_c0 != 0:
                o_a = ex3 * (ay - y1) - ey3 * (ax - x0)
                o_b = ex3 * (by - y1) - ey3 * (bx - x0)
                if (o_a > 0) != (o_b > 0) and o_a != 0 and o_b != 0:
                    return True
            if not touching:
                continue
            # A corner on ab.
            if lo_x <= x0 <= hi_x:
                if lo_y <= y0 <= hi_y and not abs(o_c0) > tol:
                    return True
                if lo_y <= y1 <= hi_y and not abs(o_c3) > tol:
                    return True
            if lo_x <= x1 <= hi_x:
                if lo_y <= y0 <= hi_y and not abs(o_c1) > tol:
                    return True
                if lo_y <= y1 <= hi_y and not abs(o_c2) > tol:
                    return True
            # a on a rectangle edge (every vertex is the a of one row,
            # so b's turn comes with the next row).
            if x0_lo <= ax <= x1_hi:
                if y0_lo <= ay <= y0_hi and not abs(
                    ex0 * (ay - y0) - ey0 * (ax - x0)
                ) > tol0:
                    return True
                if y1_lo <= ay <= y1_hi and not abs(
                    ex2 * (ay - y1) - ey2 * (ax - x1)
                ) > tol2:
                    return True
            if y0_lo <= ay <= y1_hi:
                if x1_lo <= ax <= x1_hi and not abs(
                    ex1 * (ay - y0) - ey1 * (ax - x1)
                ) > tol1:
                    return True
                if x0_lo <= ax <= x0_hi and not abs(
                    ex3 * (ay - y1) - ey3 * (ax - x0)
                ) > tol3:
                    return True
        return False

    def clip_to_rect(self, rect: Rect) -> "Polygon | None":
        """The intersection of this polygon with a rectangle, or ``None``
        when it is empty or degenerate (fewer than 3 distinct vertices).

        Sutherland–Hodgman clipping against the rectangle's four
        half-planes; the clip region is convex, so a simple input yields
        a simple output.  Used by the shard directory to weight scatter
        shares by *actual* polygon overlap instead of the bounding-box
        approximation (which over-admits shards the polygon never
        touches), and by the geoblock planner to build boundary-cell
        sub-queries.

        The output is canonical: consecutive duplicates and exactly
        collinear vertices introduced by clipping are collapsed, and a
        result that degenerates to zero area (the polygon merely touches
        the rectangle along an edge or at a corner, or the input ring
        itself was flat) is reported as ``None``.  Canonicalisation
        makes clipping idempotent — ``clip(clip(p, r), r) ==
        clip(p, r)`` — which the geometry property suite pins.
        """
        verts: list[GeoPoint] = list(self.vertices)
        for inside, intersect in _rect_half_planes(rect):
            if not verts:
                return None
            clipped: list[GeoPoint] = []
            prev = verts[-1]
            prev_in = inside(prev)
            for curr in verts:
                curr_in = inside(curr)
                if curr_in:
                    if not prev_in:
                        clipped.append(intersect(prev, curr))
                    clipped.append(curr)
                elif prev_in:
                    clipped.append(intersect(prev, curr))
                prev, prev_in = curr, curr_in
            verts = clipped
        # Collapse consecutive duplicates introduced by vertices lying
        # exactly on a clip edge.
        unique: list[GeoPoint] = []
        for v in verts:
            if not unique or (
                abs(v.x - unique[-1].x) > 1e-12 or abs(v.y - unique[-1].y) > 1e-12
            ):
                unique.append(v)
        if len(unique) >= 2 and (
            abs(unique[0].x - unique[-1].x) <= 1e-12
            and abs(unique[0].y - unique[-1].y) <= 1e-12
        ):
            unique.pop()
        unique = _collapse_collinear(unique)
        if len(unique) < 3:
            return None
        if _ring_area(unique) == 0.0:
            return None
        return Polygon(unique)

    def contains_rect(self, rect: Rect) -> bool:
        """True when the rectangle lies entirely inside the polygon.

        A simple polygon contains the rectangle when it contains the
        rectangle's boundary: all four corners are inside, no polygon
        edge crosses a rectangle edge, and where polygon vertices lie
        *on* a rectangle edge every piece of the edge between them is
        inside.  The last condition catches a concave notch entering
        through an edge the rectangle shares with a box the polygon was
        clipped to: the notch's edges only touch the rectangle's, so
        the crossing test alone lets it in, but its mouth is a piece of
        the rectangle's edge that lies outside.
        """
        if not self._bbox.contains_rect(rect):
            return False
        x0, y0, x1, y1 = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        contains = self._contains_xy
        if not (
            contains(x0, y0) and contains(x1, y0) and contains(x1, y1) and contains(x0, y1)
        ):
            return False
        if self._edges_meet(x0, y0, x1, y1, touching=False):
            return False
        return self._touched_edge_pieces_inside(x0, y0, x1, y1)

    def _touched_edge_pieces_inside(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> bool:
        """Polygon vertices lying exactly on an edge of the rectangle
        ``[x0, x1] x [y0, y1]`` split it into pieces; true when every
        piece's midpoint is inside.  (Exact coordinate equality is what
        clipping produces: it stamps the clip bound into the vertex.)"""
        # (horizontal?, the rectangle edge's fixed coordinate) -> where
        # along that edge vertices sit.
        cuts: dict[tuple[bool, float], set[float]] = {}
        for row in self._edges:
            vx, vy = row[0], row[1]
            if x0 < vx < x1:
                if vy == y0:
                    cuts.setdefault((True, y0), set()).add(vx)
                if vy == y1:
                    cuts.setdefault((True, y1), set()).add(vx)
            if y0 < vy < y1:
                if vx == x0:
                    cuts.setdefault((False, x0), set()).add(vy)
                if vx == x1:
                    cuts.setdefault((False, x1), set()).add(vy)
        contains = self._contains_xy
        for (horizontal, fixed), along in cuts.items():
            bounds = [x0, *sorted(along), x1] if horizontal else [y0, *sorted(along), y1]
            for start, end in zip(bounds, bounds[1:]):
                mid = (start + end) / 2.0
                if not (contains(mid, fixed) if horizontal else contains(fixed, mid)):
                    return False
        return True


def _rect_half_planes(rect: Rect):
    """The rectangle's four clip predicates as ``(inside, intersect)``
    pairs for Sutherland–Hodgman clipping."""

    def cross_x(bound: float):
        def intersect(a: GeoPoint, b: GeoPoint) -> GeoPoint:
            t = (bound - a.x) / (b.x - a.x)
            return GeoPoint(bound, a.y + t * (b.y - a.y))

        return intersect

    def cross_y(bound: float):
        def intersect(a: GeoPoint, b: GeoPoint) -> GeoPoint:
            t = (bound - a.y) / (b.y - a.y)
            return GeoPoint(a.x + t * (b.x - a.x), bound)

        return intersect

    return [
        (lambda p, b=rect.min_x: p.x >= b, cross_x(rect.min_x)),
        (lambda p, b=rect.max_x: p.x <= b, cross_x(rect.max_x)),
        (lambda p, b=rect.min_y: p.y >= b, cross_y(rect.min_y)),
        (lambda p, b=rect.max_y: p.y <= b, cross_y(rect.max_y)),
    ]


def _ring_area(points: Sequence[GeoPoint]) -> float:
    """Unsigned shoelace area of a vertex ring (no Polygon required, so
    degenerate rings can be measured before construction)."""
    total = 0.0
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return abs(total) / 2.0


def _collapse_collinear(points: list[GeoPoint]) -> list[GeoPoint]:
    """Drop vertices that are *exactly* collinear with their cyclic
    neighbours.

    Clipping against an axis-aligned boundary stamps the clamped
    coordinate exactly, so every spurious mid-edge vertex it introduces
    is exactly collinear with its neighbours — an exact-zero orientation
    test removes all of them without perturbing genuine geometry (a
    tolerance here would silently move near-degenerate edges)."""
    out = list(points)
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            a = out[i - 1]
            b = out[i]
            c = out[(i + 1) % len(out)]
            if _orient(a, b, c) == 0.0:
                del out[i]
                changed = True
                break
    return out


def _orient(a: GeoPoint, b: GeoPoint, c: GeoPoint) -> float:
    """Signed area of the triangle (a, b, c); >0 means counterclockwise."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _edge_table(xs: list[float], ys: list[float]) -> tuple[_EdgeRow, ...]:
    """One ``_EdgeRow`` per edge of the ring, in ring order."""
    rows = []
    for ax, ay, bx, by in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        lo_x, hi_x = (ax, bx) if ax <= bx else (bx, ax)
        lo_y, hi_y = (ay, by) if ay <= by else (by, ay)
        rows.append(
            (
                ax,
                ay,
                bx,
                by,
                bx - ax,
                by - ay,
                1e-12 * (1.0 + abs(ax) + abs(bx) + abs(ay) + abs(by)),
                lo_x - 1e-12,
                hi_x + 1e-12,
                lo_y - 1e-12,
                hi_y + 1e-12,
            )
        )
    return tuple(rows)
