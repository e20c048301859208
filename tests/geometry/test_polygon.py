import math
import pickle

import numpy as np
import pytest

from repro.geometry import GeoPoint, Polygon, Rect


def square(size: float = 10.0) -> Polygon:
    return Polygon(
        [GeoPoint(0, 0), GeoPoint(size, 0), GeoPoint(size, size), GeoPoint(0, size)]
    )


def l_shape() -> Polygon:
    """A concave L: the unit square [0,10]^2 minus the [5,10]x[5,10] corner."""
    return Polygon(
        [
            GeoPoint(0, 0),
            GeoPoint(10, 0),
            GeoPoint(10, 5),
            GeoPoint(5, 5),
            GeoPoint(5, 10),
            GeoPoint(0, 10),
        ]
    )


class TestConstruction:
    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            Polygon([GeoPoint(0, 0), GeoPoint(1, 1)])

    def test_closed_ring_deduplicated(self):
        p = Polygon([GeoPoint(0, 0), GeoPoint(1, 0), GeoPoint(0, 1), GeoPoint(0, 0)])
        assert len(p.vertices) == 3

    def test_from_latlon_pairs_order(self):
        # (lat, lon) pairs must map to (x=lon, y=lat).
        p = Polygon.from_latlon_pairs([(47, -122), (47, -121), (48, -121), (48, -122)])
        assert p.bounding_box == Rect(-122, 47, -121, 48)


class TestArea:
    def test_square_area(self):
        assert square(10).area == pytest.approx(100.0)

    def test_l_shape_area(self):
        assert l_shape().area == pytest.approx(75.0)

    def test_winding_order_irrelevant(self):
        cw = Polygon([GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1), GeoPoint(1, 0)])
        assert cw.area == pytest.approx(1.0)


class TestContainsPoint:
    def test_interior(self):
        assert square().contains_point(GeoPoint(5, 5))

    def test_exterior(self):
        assert not square().contains_point(GeoPoint(11, 5))

    def test_boundary_counts_inside(self):
        assert square().contains_point(GeoPoint(0, 5))
        assert square().contains_point(GeoPoint(10, 10))

    def test_concave_notch_excluded(self):
        assert not l_shape().contains_point(GeoPoint(7.5, 7.5))
        assert l_shape().contains_point(GeoPoint(2.5, 7.5))

    def test_the_array_table_is_built_once_and_never_shipped(self):
        polygon = l_shape()
        xs, ys = np.array([7.5, 2.5]), np.array([7.5, 7.5])
        assert polygon.contains_points(xs, ys).tolist() == [False, True]
        table = polygon._table
        assert polygon.contains_points(xs, ys).tolist() == [False, True]
        assert polygon._table is table
        loaded = pickle.loads(pickle.dumps(polygon))
        assert loaded == polygon and loaded._table is None


class TestRectRelations:
    def test_intersects_overlapping(self):
        assert square().intersects_rect(Rect(5, 5, 15, 15))

    def test_intersects_disjoint(self):
        assert not square().intersects_rect(Rect(20, 20, 30, 30))

    def test_rect_fully_inside_polygon(self):
        assert square().intersects_rect(Rect(2, 2, 3, 3))
        assert square().contains_rect(Rect(2, 2, 3, 3))

    def test_polygon_fully_inside_rect(self):
        assert square().intersects_rect(Rect(-5, -5, 20, 20))
        assert not square().contains_rect(Rect(-5, -5, 20, 20))

    def test_edge_crossing_without_contained_corners(self):
        # A tall thin rect crossing the square horizontally: no vertex of
        # either shape is inside the other.
        tall = Rect(4, -5, 6, 15)
        assert square().intersects_rect(tall)
        assert not square().contains_rect(tall)

    def test_concave_containment(self):
        assert not l_shape().contains_rect(Rect(4, 4, 8, 8))
        assert l_shape().contains_rect(Rect(1, 1, 4, 4))

    def test_notch_entering_through_a_shared_edge_is_not_contained(self):
        """A polygon clipped to a box (a shard MBR) gets vertices on the
        box's edge; a leaf box sharing that edge then sees a concave
        notch whose edges *start on* its own edge — touching, not
        crossing — with all four corners inside.  The notch tip inside
        the leaf box is what gives it away."""
        notched = Polygon(
            [
                GeoPoint(0, -4),
                GeoPoint(4, -4),
                GeoPoint(5, 3),
                GeoPoint(6, -4),
                GeoPoint(10, -4),
                GeoPoint(10, 10),
                GeoPoint(0, 10),
            ]
        ).clip_to_rect(Rect(0, 0, 10, 10))
        leaf_box = Rect(2, 0, 8, 6)
        assert all(notched.contains_point(c) for c in leaf_box.corners())
        assert not notched.contains_point(GeoPoint(5, 1))
        assert not notched.contains_rect(leaf_box)
        assert notched.intersects_rect(leaf_box)
        # Beside the notch the same-edge box is contained.
        assert notched.contains_rect(Rect(6, 0, 10, 6))

    def test_region_protocol_parity_with_rect(self):
        """A rectangle's corners as a polygon must agree with the Rect region protocol."""
        r = Rect(2, 2, 8, 8)
        p = Polygon(r.corners())
        for probe in [Rect(3, 3, 4, 4), Rect(0, 0, 2.5, 2.5), Rect(9, 9, 11, 11)]:
            assert p.intersects_rect(probe) == r.intersects_rect(probe)
            assert p.contains_rect(probe) == r.contains_rect(probe)


class TestNonFiniteVertices:
    """``min(0, nan)`` is 0, so the bounding box only ever saw a NaN in
    the first vertex; everywhere else it used to slip through and every
    predicate answered from garbage."""

    RING = [GeoPoint(0, 0), GeoPoint(1, 0), GeoPoint(1, 1)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_rejected_wherever_it_sits(self, bad, position):
        for vertex in (GeoPoint(bad, 0.5), GeoPoint(0.5, bad)):
            ring = self.RING[:position] + [vertex] + self.RING[position:]
            with pytest.raises(ValueError, match="finite"):
                Polygon(ring)

    def test_from_latlon_pairs_rejects_it_too(self):
        with pytest.raises(ValueError, match="finite"):
            Polygon.from_latlon_pairs([(47, -122), (math.nan, -121), (48, -121)])

    def test_an_unbounded_rect_has_no_polygon(self):
        with pytest.raises(ValueError, match="finite"):
            Polygon(Rect(-math.inf, 0, 1, 1).corners())
