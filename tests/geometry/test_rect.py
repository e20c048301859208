import pytest

from repro.geometry import GeoPoint, Rect


class TestConstruction:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_nan_bounds_rejected_infinite_bounds_kept(self):
        nan, inf = float("nan"), float("inf")
        for bounds in ((nan, 0, 1, 1), (0, nan, 1, 1), (0, 0, nan, 1), (0, 0, 1, nan)):
            with pytest.raises(ValueError):
                Rect(*bounds)
        unbounded = Rect(-inf, -inf, inf, inf)
        assert unbounded.contains_point(GeoPoint(1e300, -1e300))

    def test_from_points(self):
        r = Rect.from_points([GeoPoint(1, 5), GeoPoint(-2, 3), GeoPoint(0, 9)])
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (-2, 3, 1, 9)

    def test_from_points_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_from_center(self):
        r = Rect.from_center(GeoPoint(5, 5), 2, 3)
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (3, 2, 7, 8)

    def test_from_center_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Rect.from_center(GeoPoint(0, 0), -1, 1)

    def test_union_of(self):
        r = Rect.union_of([Rect(0, 0, 1, 1), Rect(2, -1, 3, 0.5)])
        assert (r.min_x, r.min_y, r.max_x, r.max_y) == (0, -1, 3, 1)

    def test_union_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect.union_of([])


class TestMeasures:
    def test_area_and_dims(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4 and r.height == 2 and r.area == 8

    def test_degenerate_area(self):
        assert Rect(1, 1, 1, 5).area == 0.0

    def test_center(self):
        assert Rect(0, 0, 4, 2).center == GeoPoint(2, 1)


class TestRelations:
    def test_contains_point_boundary_closed(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(GeoPoint(0, 0))
        assert r.contains_point(GeoPoint(1, 1))
        assert not r.contains_point(GeoPoint(1.0001, 0.5))

    def test_contains_rect(self):
        outer, inner = Rect(0, 0, 10, 10), Rect(2, 2, 5, 5)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)

    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))
        assert Rect(0, 0, 1, 1).intersects_rect(Rect(1, 1, 2, 2))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_intersection_shape(self):
        inter = Rect(0, 0, 4, 4).intersection(Rect(2, 2, 6, 6))
        assert inter == Rect(2, 2, 4, 4)


class TestOverlapFraction:
    def test_fully_inside_is_one(self):
        assert Rect(2, 2, 3, 3).overlap_fraction(Rect(0, 0, 10, 10)) == 1.0

    def test_disjoint_is_zero(self):
        assert Rect(0, 0, 1, 1).overlap_fraction(Rect(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        assert Rect(0, 0, 2, 2).overlap_fraction(Rect(1, 0, 4, 2)) == pytest.approx(0.5)

    def test_degenerate_rect_uses_center(self):
        point_rect = Rect(1, 1, 1, 1)
        assert point_rect.overlap_fraction(Rect(0, 0, 2, 2)) == 1.0
        assert point_rect.overlap_fraction(Rect(5, 5, 6, 6)) == 0.0


class TestExpanded:
    def test_grow(self):
        assert Rect(0, 0, 1, 1).expanded(1) == Rect(-1, -1, 2, 2)

    def test_shrink_too_much_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).expanded(-1)
