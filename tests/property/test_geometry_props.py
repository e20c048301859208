"""Property-based tests of the spatial substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import GeoPoint, Polygon, Rect

coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def points(draw):
    return GeoPoint(draw(coord), draw(coord))


class TestRectProperties:
    @given(rects(), rects())
    def test_intersection_commutative(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        ia, ib = a.intersection(b), b.intersection(a)
        assert ia == ib

    @given(rects(), rects())
    def test_containment_implies_intersection(self, a, b):
        if a.contains_rect(b):
            assert a.intersects(b)

    @given(rects(), rects())
    def test_overlap_fraction_bounded(self, a, b):
        f = a.overlap_fraction(b)
        assert 0.0 <= f <= 1.0 + 1e-9

    @given(rects())
    def test_self_overlap_is_one(self, a):
        assert a.overlap_fraction(a) == 1.0

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = Rect.union_of([a, b])
        assert u.contains_rect(a) and u.contains_rect(b)

    @given(rects(), rects())
    def test_intersection_inside_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_rect(inter) and b.contains_rect(inter)

    @given(rects(), rects())
    def test_overlap_area_identity(self, a, b):
        """fraction * area == intersection area (when area > 0)."""
        if a.area > 0:
            inter = a.intersection(b)
            expected = inter.area if inter is not None else 0.0
            assert abs(a.overlap_fraction(b) * a.area - expected) <= 1e-6 * max(
                1.0, a.area
            )


class TestPolygonProperties:
    @given(rects(), points())
    @settings(max_examples=200)
    def test_polygon_from_rect_point_parity(self, r, p):
        if r.area == 0:
            return  # degenerate rects are not valid polygons
        poly = Polygon(r.corners())
        assert poly.contains_point(p) == r.contains_point(p)

    @given(rects(), rects())
    @settings(max_examples=200)
    def test_polygon_from_rect_relation_parity(self, r, probe):
        if r.area == 0:
            return
        poly = Polygon(r.corners())
        assert poly.intersects_rect(probe) == r.intersects_rect(probe)
        assert poly.contains_rect(probe) == r.contains_rect(probe)

    @given(rects())
    def test_polygon_area_matches_rect(self, r):
        if r.area == 0:
            return
        assert abs(Polygon(r.corners()).area - r.area) <= 1e-6 * max(1.0, r.area)

    @given(st.lists(points(), min_size=3, max_size=8))
    @settings(max_examples=200)
    def test_bbox_contains_all_vertices(self, verts):
        try:
            poly = Polygon(verts)
        except ValueError:
            return  # collapsed ring
        for v in poly.vertices:
            assert poly.bounding_box.contains_point(v)

    @given(st.lists(points(), min_size=3, max_size=8), points())
    @settings(max_examples=200)
    def test_containment_implies_bbox_containment(self, verts, p):
        try:
            poly = Polygon(verts)
        except ValueError:
            return
        if poly.contains_point(p):
            assert poly.bounding_box.contains_point(p)
