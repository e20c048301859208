"""Simple polygons for ``WITHIN Polygon(<lat,long>)`` query regions.

SensorMap users may draw arbitrary polygonal regions of interest; the
portal's query dialect carries them as a vertex list.  Internally the
index prunes with the polygon's bounding box (rectangle math is cheap)
and only falls back to exact point-in-polygon / rectangle-relation tests
where the bounding box is ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.geometry.point import GeoPoint
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class Polygon:
    """A simple (non self-intersecting) polygon given by its vertices.

    The vertex ring may be given in either winding order and need not be
    explicitly closed.  At least three vertices are required.
    """

    vertices: tuple[GeoPoint, ...]
    _bbox: Rect = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Iterable[GeoPoint]) -> None:
        verts = tuple(vertices)
        if len(verts) >= 2 and verts[0] == verts[-1]:
            verts = verts[:-1]
        if len(verts) < 3:
            raise ValueError("a polygon needs at least 3 distinct vertices")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_bbox", Rect.from_points(verts))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rect(cls, rect: Rect) -> "Polygon":
        """The rectangle as a 4-vertex polygon."""
        return cls(rect.corners())

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
        total = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            total += a.x * b.y - b.x * a.y
        return abs(total) / 2.0

    def as_rect(self) -> "Rect | None":
        """The equivalent axis-aligned rectangle, when this polygon is
        exactly one (its four vertices are the four corners of its own
        bounding box), else ``None``.

        The polygon query planners use this to detect rectangles drawn
        as polygons and route them down the plain rectangle path, which
        keeps ``execute_polygon`` bit-identical to ``execute`` on such
        regions.  Degenerate (zero-area) rings are never rectangles.
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
        if not self._bbox.contains_point(p):
            return False
        verts = self.vertices
        n = len(verts)
        inside = False
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            if _on_segment(p, a, b):
                return True
            if (a.y > p.y) != (b.y > p.y):
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if p.x < x_cross:
                    inside = not inside
        return inside

    def intersects_rect(self, rect: Rect) -> bool:
        """True when the polygon and the rectangle share any point."""
        if not self._bbox.intersects(rect):
            return False
        # Any polygon vertex inside the rect, or any rect corner inside
        # the polygon, or any edge pair crossing.
        if any(rect.contains_point(v) for v in self.vertices):
            return True
        if any(self.contains_point(c) for c in rect.corners()):
            return True
        rect_edges = _rect_edges(rect)
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            for c, d in rect_edges:
                if _segments_intersect(a, b, c, d):
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
        if not all(self.contains_point(c) for c in rect.corners()):
            return False
        rect_edges = _rect_edges(rect)
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            for c, d in rect_edges:
                if _segments_properly_intersect(a, b, c, d):
                    return False
        return self._touched_edge_pieces_inside(rect)

    def _touched_edge_pieces_inside(self, rect: Rect) -> bool:
        """Polygon vertices lying exactly on a rectangle edge split it
        into pieces; true when every piece's midpoint is inside.  (Exact
        coordinate equality is what clipping produces: it stamps the
        clip bound into the vertex.)"""
        for horizontal, fixed, lo, hi in (
            (True, rect.min_y, rect.min_x, rect.max_x),
            (True, rect.max_y, rect.min_x, rect.max_x),
            (False, rect.min_x, rect.min_y, rect.max_y),
            (False, rect.max_x, rect.min_y, rect.max_y),
        ):
            if horizontal:
                cuts = {v.x for v in self.vertices if v.y == fixed and lo < v.x < hi}
            else:
                cuts = {v.y for v in self.vertices if v.x == fixed and lo < v.y < hi}
            if not cuts:
                continue
            bounds = [lo, *sorted(cuts), hi]
            for a, b in zip(bounds, bounds[1:]):
                mid = (a + b) / 2.0
                point = GeoPoint(mid, fixed) if horizontal else GeoPoint(fixed, mid)
                if not self.contains_point(point):
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


def _rect_edges(rect: Rect) -> list[tuple[GeoPoint, GeoPoint]]:
    c0, c1, c2, c3 = rect.corners()
    return [(c0, c1), (c1, c2), (c2, c3), (c3, c0)]


def _orient(a: GeoPoint, b: GeoPoint, c: GeoPoint) -> float:
    """Signed area of the triangle (a, b, c); >0 means counterclockwise."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_segment(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> bool:
    """True when ``p`` lies on the closed segment ``ab``."""
    if abs(_orient(a, b, p)) > 1e-12 * (1.0 + abs(a.x) + abs(b.x) + abs(a.y) + abs(b.y)):
        return False
    return (
        min(a.x, b.x) - 1e-12 <= p.x <= max(a.x, b.x) + 1e-12
        and min(a.y, b.y) - 1e-12 <= p.y <= max(a.y, b.y) + 1e-12
    )


def _segments_intersect(a: GeoPoint, b: GeoPoint, c: GeoPoint, d: GeoPoint) -> bool:
    """Closed-segment intersection (touching endpoints count)."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    return (
        _on_segment(c, a, b)
        or _on_segment(d, a, b)
        or _on_segment(a, c, d)
        or _on_segment(b, c, d)
    )


def _segments_properly_intersect(a: GeoPoint, b: GeoPoint, c: GeoPoint, d: GeoPoint) -> bool:
    """Proper crossing test: the segments cross at an interior point."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    return ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and 0 not in (o1, o2, o3, o4)
