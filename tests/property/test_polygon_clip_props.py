"""Property-based tests of Sutherland–Hodgman polygon clipping.

The geoblock planner leans on ``Polygon.clip_to_rect`` for every
boundary cell, and the federation scatter uses it to route polygon
sub-queries — so the clip must stay well-behaved on the degenerate
inputs real workloads produce: vertices exactly on clip edges, flat
rings, polygons merely touching a rectangle at a corner.

Pinned properties:

* idempotence — ``clip(clip(p, r), r) == clip(p, r)`` exactly (the
  canonicalisation contract in the ``clip_to_rect`` docstring);
* the clip lies inside both inputs: every output vertex is in the
  rectangle, and the clip area never exceeds either input's area;
* area conservation — splitting the clip rectangle into halves
  partitions the clip area (no sliver is dropped or double-counted);
* a rectangle covering the whole polygon clips to the same area;
* degenerate inputs (flat rings, touch-only overlap) return ``None``
  rather than raising or producing a zero-area ring;
* ``contains_rect`` on a clipped polygon never admits a box that a
  concave notch enters — the boxes share edges with the clip rectangle,
  as leaf boxes share a shard MBR's.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import GeoPoint, Polygon, Rect

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
radius = st.floats(min_value=0.1, max_value=50.0)


@st.composite
def star_polygons(draw):
    """Simple (possibly concave) polygons: jittered radii at jittered
    evenly spaced angles around a center.  Every angular gap stays
    below pi (jitter is bounded by ±0.2 steps), which makes the ring
    star-shaped around the center and therefore simple — unsorted or
    wide-gap angle draws can self-intersect."""
    cx, cy = draw(coord), draw(coord)
    n = draw(st.integers(min_value=3, max_value=12))
    jitters = draw(
        st.lists(
            st.floats(min_value=-0.2, max_value=0.2),
            min_size=n,
            max_size=n,
        )
    )
    radii = draw(st.lists(radius, min_size=n, max_size=n))
    step = 2.0 * math.pi / n
    return Polygon(
        GeoPoint(
            cx + r * math.cos((i + j) * step),
            cy + r * math.sin((i + j) * step),
        )
        for i, (j, r) in enumerate(zip(jitters, radii))
    )


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2 + draw(radius), y2 + draw(radius))


def _tol(polygon: Polygon, rect: Rect) -> float:
    scale = max(
        1.0,
        polygon.area,
        rect.area,
        *(abs(v.x) + abs(v.y) for v in polygon.vertices),
    )
    return 1e-9 * scale


class TestClipProperties:
    @given(star_polygons(), rects())
    def test_idempotent(self, polygon, rect):
        once = polygon.clip_to_rect(rect)
        if once is None:
            return
        twice = once.clip_to_rect(rect)
        assert twice == once

    @given(star_polygons(), rects())
    def test_clip_inside_both(self, polygon, rect):
        clipped = polygon.clip_to_rect(rect)
        if clipped is None:
            return
        eps = _tol(polygon, rect)
        for v in clipped.vertices:
            assert rect.min_x - eps <= v.x <= rect.max_x + eps
            assert rect.min_y - eps <= v.y <= rect.max_y + eps
        assert clipped.area <= polygon.area + eps
        assert clipped.area <= rect.area + eps

    @given(star_polygons(), rects())
    def test_area_conserved_under_partition(self, polygon, rect):
        """Splitting the clip rectangle down the middle partitions the
        clip area — Sutherland–Hodgman drops no sliver at the seam."""
        whole = polygon.clip_to_rect(rect)
        whole_area = whole.area if whole is not None else 0.0
        mid = (rect.min_x + rect.max_x) / 2.0
        left = polygon.clip_to_rect(Rect(rect.min_x, rect.min_y, mid, rect.max_y))
        right = polygon.clip_to_rect(Rect(mid, rect.min_y, rect.max_x, rect.max_y))
        parts = sum(p.area for p in (left, right) if p is not None)
        assert parts == pytest_approx(whole_area, _tol(polygon, rect))

    @given(star_polygons())
    def test_covering_rect_preserves_area(self, polygon):
        bbox = polygon.bounding_box
        cover = Rect(bbox.min_x - 1.0, bbox.min_y - 1.0, bbox.max_x + 1.0, bbox.max_y + 1.0)
        clipped = polygon.clip_to_rect(cover)
        assert clipped is not None
        assert clipped.area == pytest_approx(polygon.area, _tol(polygon, cover))

    @given(star_polygons())
    @settings(max_examples=50)
    def test_disjoint_rect_clips_to_none(self, polygon):
        bbox = polygon.bounding_box
        far = Rect(bbox.max_x + 1.0, bbox.min_y, bbox.max_x + 2.0, bbox.max_y)
        assert polygon.clip_to_rect(far) is None


@st.composite
def clipped_spiky_stars(draw):
    """A concave star (alternating outer/inner radii) and a clip
    rectangle around its center that cuts the spikes short: the
    concavities between spikes then enter the clipped polygon *through*
    the clip rectangle's edges, their tips inside it."""
    cx, cy = draw(coord), draw(coord)
    spikes = draw(st.integers(min_value=3, max_value=8))
    outer = draw(st.floats(min_value=1.0, max_value=50.0))
    inner = outer * draw(st.floats(min_value=0.15, max_value=0.6))
    phase = draw(st.floats(min_value=0.0, max_value=math.pi))
    step = math.pi / spikes
    star = Polygon(
        GeoPoint(
            cx + (outer if i % 2 == 0 else inner) * math.cos(phase + i * step),
            cy + (outer if i % 2 == 0 else inner) * math.sin(phase + i * step),
        )
        for i in range(2 * spikes)
    )
    half_w = outer * draw(st.floats(min_value=0.2, max_value=1.1))
    half_h = outer * draw(st.floats(min_value=0.2, max_value=1.1))
    return star, Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h)


# Box edges as fractions of the clip rectangle: 0 and 1 put them exactly
# on the clip's own edges, where clipping leaves polygon vertices.
fraction = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


class TestContainsRectAfterClip:
    @given(clipped_spiky_stars(), fraction, fraction, fraction, fraction)
    @settings(max_examples=300)
    def test_contained_box_holds_no_outside_point(
        self, star_and_rect, fx1, fx2, fy1, fy2
    ):
        """``contains_rect(box)`` implies every point of a 5x5 lattice
        over the box is inside — for boxes that share edges with the
        rectangle the polygon was clipped to, as leaf boxes share a
        shard MBR's."""
        star, rect = star_and_rect
        clipped = star.clip_to_rect(rect)
        if clipped is None:
            return
        (fx1, fx2), (fy1, fy2) = sorted((fx1, fx2)), sorted((fy1, fy2))
        box = Rect(
            rect.min_x + fx1 * rect.width,
            rect.min_y + fy1 * rect.height,
            rect.min_x + fx2 * rect.width,
            rect.min_y + fy2 * rect.height,
        )
        if not clipped.contains_rect(box):
            return
        for i in range(5):
            for j in range(5):
                # Clamped: min + width * 4 / 4 can round past max.
                point = GeoPoint(
                    min(box.max_x, box.min_x + box.width * i / 4.0),
                    min(box.max_y, box.min_y + box.height * j / 4.0),
                )
                assert clipped.contains_point(point), (clipped, box, point)


class TestDegenerateInputs:
    def test_flat_ring_clips_to_none(self):
        flat = Polygon(
            [GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0), GeoPoint(2.0, 2.0)]
        )
        assert flat.clip_to_rect(Rect(-1.0, -1.0, 3.0, 3.0)) is None

    def test_edge_touch_clips_to_none(self):
        triangle = Polygon(
            [GeoPoint(0.0, 0.0), GeoPoint(2.0, 0.0), GeoPoint(1.0, 2.0)]
        )
        # The rectangle shares only the triangle's bottom edge.
        assert triangle.clip_to_rect(Rect(0.0, -1.0, 2.0, 0.0)) is None

    def test_corner_touch_clips_to_none(self):
        triangle = Polygon(
            [GeoPoint(0.0, 0.0), GeoPoint(2.0, 0.0), GeoPoint(1.0, 2.0)]
        )
        assert triangle.clip_to_rect(Rect(-2.0, -2.0, 0.0, 0.0)) is None

    def test_vertices_on_clip_edges_stay_canonical(self):
        # A diamond whose vertices lie exactly on the clip boundary:
        # clipping must not duplicate them or leave collinear residue.
        diamond = Polygon(
            [
                GeoPoint(0.0, -1.0),
                GeoPoint(1.0, 0.0),
                GeoPoint(0.0, 1.0),
                GeoPoint(-1.0, 0.0),
            ]
        )
        clipped = diamond.clip_to_rect(Rect(-1.0, -1.0, 1.0, 1.0))
        assert clipped is not None
        assert clipped.area == diamond.area
        assert len(clipped.vertices) == 4
        assert clipped.clip_to_rect(Rect(-1.0, -1.0, 1.0, 1.0)) == clipped


def pytest_approx(value: float, tol: float):
    import pytest

    return pytest.approx(value, abs=max(tol, 1e-9), rel=1e-6)
