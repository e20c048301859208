"""The per-edge polygon predicates, kept as the test oracle.

Until PR 20 ``Polygon.contains_point`` / ``intersects_rect`` /
``contains_rect`` / ``_touched_edge_pieces_inside`` walked the vertex
ring calling ``_on_segment`` / ``_segments_intersect`` /
``_segments_properly_intersect`` on ``GeoPoint`` pairs for every edge.
``src/`` now reads a per-polygon edge table instead; the bodies below
are the replaced ones verbatim, taking the polygon as an argument and
reading nothing of it but ``vertices``.
``tests/property/test_polygon_edge_table_props.py`` holds the table
kernel to them boolean for boolean.
"""

from __future__ import annotations

from repro.geometry import GeoPoint, Polygon, Rect


def contains_point(polygon: Polygon, p: GeoPoint) -> bool:
    """Even-odd point-in-polygon test; boundary points count inside."""
    if not Rect.from_points(polygon.vertices).contains_point(p):
        return False
    verts = polygon.vertices
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


def intersects_rect(polygon: Polygon, rect: Rect) -> bool:
    """True when the polygon and the rectangle share any point."""
    if not Rect.from_points(polygon.vertices).intersects(rect):
        return False
    # Any polygon vertex inside the rect, or any rect corner inside
    # the polygon, or any edge pair crossing.
    if any(rect.contains_point(v) for v in polygon.vertices):
        return True
    if any(contains_point(polygon, c) for c in rect.corners()):
        return True
    rect_edges = _rect_edges(rect)
    verts = polygon.vertices
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        for c, d in rect_edges:
            if _segments_intersect(a, b, c, d):
                return True
    return False


def contains_rect(polygon: Polygon, rect: Rect) -> bool:
    """True when the rectangle lies entirely inside the polygon."""
    if not Rect.from_points(polygon.vertices).contains_rect(rect):
        return False
    if not all(contains_point(polygon, c) for c in rect.corners()):
        return False
    rect_edges = _rect_edges(rect)
    verts = polygon.vertices
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        for c, d in rect_edges:
            if _segments_properly_intersect(a, b, c, d):
                return False
    return touched_edge_pieces_inside(polygon, rect)


def touched_edge_pieces_inside(polygon: Polygon, rect: Rect) -> bool:
    """Polygon vertices lying exactly on a rectangle edge split it
    into pieces; true when every piece's midpoint is inside."""
    for horizontal, fixed, lo, hi in (
        (True, rect.min_y, rect.min_x, rect.max_x),
        (True, rect.max_y, rect.min_x, rect.max_x),
        (False, rect.min_x, rect.min_y, rect.max_y),
        (False, rect.max_x, rect.min_y, rect.max_y),
    ):
        if horizontal:
            cuts = {v.x for v in polygon.vertices if v.y == fixed and lo < v.x < hi}
        else:
            cuts = {v.y for v in polygon.vertices if v.x == fixed and lo < v.y < hi}
        if not cuts:
            continue
        bounds = [lo, *sorted(cuts), hi]
        for a, b in zip(bounds, bounds[1:]):
            mid = (a + b) / 2.0
            point = GeoPoint(mid, fixed) if horizontal else GeoPoint(fixed, mid)
            if not contains_point(polygon, point):
                return False
    return True


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
