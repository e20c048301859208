"""The edge-table polygon kernel answers as the per-edge one did.

``Polygon.contains_point`` / ``intersects_rect`` / ``contains_rect`` /
``_touched_edge_pieces_inside`` read a table of plain floats built once
per polygon; the bodies they replaced — ``GeoPoint`` pairs through
``_on_segment`` / ``_segments_intersect`` /
``_segments_properly_intersect`` for every edge — are kept verbatim in
``tests/geometry/reference_polygon.py``.  The table kernel re-orders
conjunctions, shares sub-expressions and looks at some of them lazily,
but evaluates the same float expressions, so the two must agree
*boolean for boolean*, not merely away from the boundary.  The
batteries below therefore sit on it: every vertex, points along every
edge and a few ulps off it, points level with a vertex (the
ray-through-vertex case), degenerate rectangles, grid cells, and cells
sharing an edge or a corner with a polygon clipped to its neighbour.

``Polygon.contains_points`` is the scalar ``_contains_xy`` over
coordinate arrays (the front door crops a polygon's boundary tiles
with it); it evaluates the same expressions and must agree with the
scalar test verdict for verdict, on the batteries above plus points on
the bounding box's edges, non-finite coordinates and the empty array.

Each example is a polygon drawn by hypothesis plus a seed for the
battery, so a failure reproduces from the two values it prints.
"""

from __future__ import annotations

import math
import pickle
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry import polygon as polygon_mod
from repro.geometry.grid import cell_of_point, cell_rect
from repro.workloads.polygons import _convex_hull

from tests.geometry import reference_polygon as reference

INF = math.inf
NUDGES = (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11)
CELL_SIZES = (0.05, 0.25, 1.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
centers = st.tuples(
    st.floats(min_value=-125.0, max_value=125.0),
    st.floats(min_value=-60.0, max_value=60.0),
)
radii = st.floats(min_value=0.05, max_value=20.0)
half_steps = st.integers(min_value=-8, max_value=8).map(lambda k: k / 2.0)


# ----------------------------------------------------------------------
# Polygon families (the e2e workload's, plus grid-snapped rings)
# ----------------------------------------------------------------------
@st.composite
def hulls(draw):
    """Convex hull of a Gaussian cloud (``convex-random``)."""
    (cx, cy), r = draw(centers), draw(radii)
    rng = random.Random(draw(seeds))
    while True:
        cloud = [
            (cx + rng.gauss(0.0, r), cy + rng.gauss(0.0, r / 2.0))
            for _ in range(rng.randint(8, 14))
        ]
        hull = _convex_hull(cloud)
        if len(hull) >= 3:
            return Polygon(GeoPoint(x, y) for x, y in hull)


def _star_ring(rng: random.Random, cx: float, cy: float, r: float):
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(rng.randint(8, 16)))
    return [
        (
            cx + (j := rng.uniform(0.6, 1.0)) * r * math.cos(angle),
            cy + j * r * math.sin(angle),
        )
        for angle in angles
    ]


@st.composite
def stars(draw):
    """Angle-sorted ring at jittered radii (``city-boundary``): concave."""
    (cx, cy), r = draw(centers), draw(radii)
    ring = _star_ring(random.Random(draw(seeds)), cx, cy, r)
    return Polygon(GeoPoint(x, y) for x, y in ring)


@st.composite
def corridors(draw):
    """A thin oriented quadrilateral (``corridor``)."""
    (x0, y0), length = draw(centers), draw(radii)
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    half = length * draw(st.floats(min_value=0.005, max_value=0.1))
    ux, uy = math.cos(angle), math.sin(angle)
    x1, y1 = x0 + length * ux, y0 + length * uy
    px, py = -uy * half, ux * half
    return Polygon(
        [
            GeoPoint(x0 + px, y0 + py),
            GeoPoint(x1 + px, y1 + py),
            GeoPoint(x1 - px, y1 - py),
            GeoPoint(x0 - px, y0 - py),
        ]
    )


@st.composite
def snapped(draw):
    """A star ring with every vertex rounded to the 0.25-degree grid:
    axis-aligned and zero-length edges, vertices sharing coordinates
    with each other and with cell bounds."""
    (cx, cy), r = draw(centers), draw(st.floats(min_value=0.5, max_value=5.0))
    rng = random.Random(draw(seeds))
    while True:
        ring = [
            (round(x * 4.0) / 4.0, round(y * 4.0) / 4.0)
            for x, y in _star_ring(rng, cx, cy, r)
        ]
        if len(set(ring)) >= 3 and ring[0] != ring[-1]:
            return Polygon(GeoPoint(x, y) for x, y in ring)


@st.composite
def far_stars(draw):
    """A star ring ten million units out: an ulp is ~2e-9 there, wider
    than the on-segment tolerance allows for, so the order in which a
    crossing or an orientation is rounded decides points near an edge."""
    (cx, cy), r = draw(centers), draw(radii)
    ring = _star_ring(random.Random(draw(seeds)), cx * 1e5, cy * 1e5, r * 1e4)
    return Polygon(GeoPoint(x, y) for x, y in ring)


@st.composite
def slivers(draw):
    """A ring of points along one line, each lifted off it by at most
    ``r * 10**-k``: near-degenerate, with edges a hair from collinear
    and (at the largest k) a width under the on-segment tolerance."""
    (x0, y0), r = draw(centers), draw(radii)
    angle = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    lift = r * 10.0 ** -draw(st.integers(min_value=4, max_value=13))
    rng = random.Random(draw(seeds))
    ux, uy = math.cos(angle), math.sin(angle)
    ring = []
    for t in sorted(rng.uniform(0.0, r) for _ in range(rng.randint(3, 7))):
        ring.append((x0 + t * ux - lift * uy, y0 + t * uy + lift * ux))
    for t in sorted((rng.uniform(0.0, r) for _ in range(rng.randint(0, 3))), reverse=True):
        ring.append((x0 + t * ux + lift * uy, y0 + t * uy - lift * ux))
    assume(len(set(ring)) >= 3)
    return Polygon(GeoPoint(x, y) for x, y in ring)


polygons = st.one_of(hulls(), stars(), corridors(), snapped(), far_stars())


def _clips(polygon: Polygon, rng: random.Random) -> list[tuple[Polygon, Rect, float]]:
    """A few ``(clip, cell rectangle, cell size)`` outputs of clipping
    the polygon to grid cells its corners sit in."""
    out = []
    for size in CELL_SIZES:
        for v in rng.sample(polygon.vertices, 2):
            rect = cell_rect(cell_of_point(v, size), size)
            clip = polygon.clip_to_rect(rect)
            if clip is not None:
                out.append((clip, rect, size))
    return out


# ----------------------------------------------------------------------
# Batteries
# ----------------------------------------------------------------------
def _padded(box: Rect) -> Rect:
    return box.expanded(0.1 * max(box.width, box.height) + 1e-9)


def _nudged(value: float) -> list[float]:
    """The value, the value moved by each absolute nudge, and by a few
    ulps (an absolute 1e-13 vanishes at 1e7)."""
    ulp = math.ulp(value)
    return [value + n for n in NUDGES] + [value + k * ulp for k in (1, -1, 8, -8)]


def _some_edges(polygon: Polygon, rng: random.Random, k: int):
    verts = polygon.vertices
    n = len(verts)
    return [(verts[i], verts[(i + 1) % n]) for i in rng.sample(range(n), min(k, n))]


def _points(polygon: Polygon, rng: random.Random) -> list[GeoPoint]:
    box = _padded(polygon.bounding_box)

    def rand_x() -> float:
        return rng.uniform(box.min_x, box.max_x)

    def rand_y() -> float:
        return rng.uniform(box.min_y, box.max_y)

    out = [GeoPoint(rand_x(), rand_y()) for _ in range(40)]
    out += polygon.vertices
    for a, b in _some_edges(polygon, rng, 8):
        # Level with the vertex: the crossing ray passes through it.
        out.append(GeoPoint(rand_x(), a.y))
        out.append(GeoPoint(a.x, rand_y()))
        for t in (0.5, rng.random(), 1e-13, 1.0 - 1e-13):
            x, y = a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)
            out += [GeoPoint(nx, y) for nx in _nudged(x)]
            out += [GeoPoint(x, ny) for ny in _nudged(y)]
    return out


def _rects_beside(v: GeoPoint, span: float, rng: random.Random) -> list[Rect]:
    """Rectangles with a corner, or an edge, on or a hair off a vertex:
    what separates "a vertex in the rectangle", "a corner in the
    polygon" and the two on-segment tests is a 1e-12 slack."""
    w, h = (span * rng.uniform(1e-4, 1e-1) for _ in range(2))
    cx, cy = rng.choice(_nudged(v.x)), rng.choice(_nudged(v.y))
    return [
        # A corner at the (nudged) vertex, one rectangle per quadrant.
        Rect(cx, cy, cx + w, cy + h),
        Rect(cx - w, cy, cx, cy + h),
        Rect(cx - w, cy - h, cx, cy),
        Rect(cx, cy - h, cx + w, cy),
        # An edge passing the (nudged) vertex: above, below, right, left.
        Rect(v.x - w, cy, v.x + w, cy + h),
        Rect(v.x - w, cy - h, v.x + w, cy),
        Rect(cx, v.y - h, cx + w, v.y + h),
        Rect(cx - w, v.y - h, cx, v.y + h),
    ]


def _rects(polygon: Polygon, rng: random.Random) -> list[Rect]:
    box = polygon.bounding_box
    pad = _padded(box)
    span = max(box.width, box.height)
    out = [box, pad, Rect(-INF, -INF, INF, INF)]
    for _ in range(8):
        x0, x1 = sorted(rng.uniform(pad.min_x, pad.max_x) for _ in range(2))
        y0, y1 = sorted(rng.uniform(pad.min_y, pad.max_y) for _ in range(2))
        out += [
            Rect(x0, y0, x1, y1),
            Rect(x0, y0, x0, y1),  # zero width
            Rect(x0, y0, x1, y0),  # zero height
            Rect(x0, y0, x0, y0),  # a point
        ]
    # Unbounded strips and half-planes (legal Rects: the front door's
    # unbounded regions).
    x, y = rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y)
    out += [
        Rect(-INF, box.min_y, INF, y),
        Rect(x, -INF, box.max_x, INF),
        Rect(-INF, -INF, x, INF),
        Rect(-INF, y, INF, y),
    ]
    for a, b in _some_edges(polygon, rng, 6):
        # Degenerate and thin rectangles pinned to the boundary.
        mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
        out += [
            Rect(a.x, a.y, a.x, a.y),
            Rect(mx, my, mx, my),
            Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)),
            Rect(mx - 1e-12, my - 1e-12, mx + 1e-12, my + 1e-12),
        ]
        out += _rects_beside(a, span, rng)
    for size in CELL_SIZES:
        # Cells around the polygon, and the ones its corners sit in.
        spots = [
            GeoPoint(rng.uniform(pad.min_x, pad.max_x), rng.uniform(pad.min_y, pad.max_y))
            for _ in range(5)
        ] + [a for a, _ in _some_edges(polygon, rng, 3)]
        out += [cell_rect(cell_of_point(p, size), size) for p in spots]
    return out


def _neighbour_rects(cell: Rect, size: float, rng: random.Random) -> list[Rect]:
    """Rectangles sharing an edge or a corner with the cell a polygon
    was clipped to, the cell itself, and boxes inside it pinned to one
    of its edges (leaf boxes against a shard MBR)."""
    out = [cell]
    for dx in (-size, 0.0, size):
        for dy in (-size, 0.0, size):
            out.append(
                Rect(cell.min_x + dx, cell.min_y + dy, cell.max_x + dx, cell.max_y + dy)
            )
    for _ in range(6):
        x0, x1 = sorted(rng.uniform(cell.min_x, cell.max_x) for _ in range(2))
        y0, y1 = sorted(rng.uniform(cell.min_y, cell.max_y) for _ in range(2))
        out += [
            Rect(x0, cell.min_y, x1, y1),
            Rect(x0, y0, x1, cell.max_y),
            Rect(cell.min_x, y0, x1, y1),
            Rect(x0, y0, cell.max_x, y1),
            Rect(cell.min_x, cell.min_y, x1, y1),
        ]
    return out


def _assert_points_agree(polygon: Polygon, points) -> None:
    for p in points:
        assert polygon.contains_point(p) == reference.contains_point(polygon, p), (
            polygon,
            p,
        )


def _assert_rects_agree(polygon: Polygon, rects) -> None:
    for r in rects:
        context = (polygon, r)
        assert polygon.intersects_rect(r) == reference.intersects_rect(polygon, r), context
        assert polygon.contains_rect(r) == reference.contains_rect(polygon, r), context
        assert polygon._touched_edge_pieces_inside(
            r.min_x, r.min_y, r.max_x, r.max_y
        ) == reference.touched_edge_pieces_inside(polygon, r), context


# ----------------------------------------------------------------------
# Table kernel == per-edge kernel
# ----------------------------------------------------------------------
class TestAgainstThePerEdgeKernel:
    @given(polygons, seeds)
    @settings(max_examples=120, deadline=None)
    def test_points(self, polygon, seed):
        _assert_points_agree(polygon, _points(polygon, random.Random(seed)))

    @given(polygons, seeds)
    @settings(max_examples=100, deadline=None)
    def test_rectangles(self, polygon, seed):
        _assert_rects_agree(polygon, _rects(polygon, random.Random(seed)))

    @given(polygons, seeds)
    @settings(max_examples=40, deadline=None)
    def test_clipped_polygons(self, polygon, seed):
        """Clipping stamps the cell bound into the vertices, so a
        clipped polygon's edges lie *on* its cell's and its neighbours'
        — the touching tests and the touched-edge pieces decide."""
        rng = random.Random(seed)
        for clip, cell, size in _clips(polygon, rng):
            _assert_points_agree(clip, _points(clip, rng))
            _assert_points_agree(clip, cell.corners())
            _assert_rects_agree(clip, _neighbour_rects(cell, size, rng))
            _assert_rects_agree(clip, _rects(clip, rng))

    def test_touching_within_the_slack_alone(self):
        """Contacts only the on-segment tests can see.  The polygon is a
        spike drooping right from its leftmost vertex v = (0, 0), plus a
        tower that keeps the bounding box tall.  One rectangle has its
        lower-left corner 1e-13 up and left of v — outside the bounding
        box, so ``contains_point`` rejects the corner, and v is outside
        the rectangle; the other's bottom edge passes 1e-13 above v.
        Nothing crosses and nothing is contained: the 1e-12 slack of the
        touching tests alone says they meet, and at 1e-11 they do not.
        The eight symmetries of the square give every rectangle edge and
        corner its turn."""
        ring = [(0, 0), (5, -3), (8, -3), (8, 4), (6, 4), (6, -1)]
        near, far = 1e-13, 1e-11
        cases = [
            (Rect(-near, near, 0.5, 0.5), True),
            (Rect(-far, far, 0.5, 0.5), False),
            (Rect(-0.5, near, 0.5, 0.5), True),
            (Rect(-0.5, far, 0.5, 0.5), False),
        ]
        symmetries = [
            lambda x, y, sx=sx, sy=sy, swap=swap: (sy * y, sx * x) if swap else (sx * x, sy * y)
            for sx in (1, -1)
            for sy in (1, -1)
            for swap in (False, True)
        ]
        for move in symmetries:
            polygon = Polygon(GeoPoint(*move(x, y)) for x, y in ring)
            for rect, meets in cases:
                moved = Rect.from_points(GeoPoint(*move(c.x, c.y)) for c in rect.corners())
                assert polygon.intersects_rect(moved) is meets, (polygon, moved)
                assert not polygon.contains_rect(moved)
                _assert_rects_agree(polygon, [moved])

    def test_notch_through_a_shared_edge(self):
        """The PR 13 regression shape, against the oracle as well."""
        box = Rect(0, 0, 10, 10)
        notched = Polygon(
            GeoPoint(x, y)
            for x, y in [(0, -4), (4, -4), (5, 3), (6, -4), (10, -4), (10, 10), (0, 10)]
        ).clip_to_rect(box)
        rects = [Rect(2, 0, 8, 6), Rect(6, 0, 10, 6), Rect(0, 0, 4, 10), box]
        _assert_rects_agree(notched, rects)
        assert not notched.contains_rect(rects[0])
        assert notched.contains_rect(rects[1])


# ----------------------------------------------------------------------
# Array predicate == scalar predicate
# ----------------------------------------------------------------------
NON_FINITE = (math.nan, INF, -INF)


def _bbox_edge_points(polygon: Polygon, rng: random.Random) -> list[GeoPoint]:
    """The bounding box's corners and points along its four edges: the
    gate's closed comparisons decide them."""
    box = polygon.bounding_box
    out = list(box.corners())
    for _ in range(4):
        x, y = rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y)
        out += [
            GeoPoint(x, box.min_y),
            GeoPoint(x, box.max_y),
            GeoPoint(box.min_x, y),
            GeoPoint(box.max_x, y),
        ]
    return out


def _crossing_points(polygon: Polygon, rng: random.Random) -> list[GeoPoint]:
    """Points at, and a few ulps either side of, where a level ray
    crosses an edge — the scalar crossing expression's own value, so a
    different rounding of it flips some of them."""
    out = []
    for a, b in _some_edges(polygon, rng, 6):
        if a.y == b.y:
            continue
        y = a.y + rng.random() * (b.y - a.y)
        x = a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y)
        out += [GeoPoint(x + k * math.ulp(x), y) for k in (-2, -1, 0, 1, 2)]
    return out


def _assert_array_agrees(polygon: Polygon, xy: list[tuple[float, float]]) -> None:
    xs = np.array([x for x, _ in xy], dtype=np.float64)
    ys = np.array([y for _, y in xy], dtype=np.float64)
    got = polygon.contains_points(xs, ys)
    assert got.dtype == np.bool_ and got.shape == (len(xy),)
    for (x, y), verdict in zip(xy, got.tolist()):
        assert verdict == polygon._contains_xy(x, y), (polygon, x, y)


def _battery(polygon: Polygon, rng: random.Random) -> list[tuple[float, float]]:
    points = (
        _points(polygon, rng)
        + _bbox_edge_points(polygon, rng)
        + _crossing_points(polygon, rng)
    )
    xy = [(p.x, p.y) for p in points]
    # Non-finite coordinates (no GeoPoint holds them, an array may),
    # paired with finite ones taken from the battery and with each other.
    for bad in NON_FINITE:
        x, y = rng.choice(xy)
        xy += [(bad, y), (x, bad)] + [(bad, other) for other in NON_FINITE]
    rng.shuffle(xy)
    return xy


class TestArrayPredicate:
    @given(st.one_of(polygons, slivers()), seeds)
    @settings(max_examples=120, deadline=None)
    def test_points(self, polygon, seed):
        _assert_array_agrees(polygon, _battery(polygon, random.Random(seed)))

    @given(st.one_of(polygons, slivers()), seeds)
    @settings(max_examples=40, deadline=None)
    def test_clipped_polygons(self, polygon, seed):
        """A clipped polygon's edges lie on its cell's: points on the
        cell's edges and corners meet the on-edge test head on."""
        rng = random.Random(seed)
        for clip, cell, _ in _clips(polygon, rng):
            xy = _battery(clip, rng) + [(c.x, c.y) for c in cell.corners()]
            _assert_array_agrees(clip, xy)

    def test_crossing_rounding(self):
        """Long slanted edges: a point an ulp off the crossing abscissa
        lies farther from the edge than the on-segment tolerance, so the
        crossing expression's rounding alone decides it."""
        rng = random.Random(7)
        for scale in (1e5, 1e6, 1e7):
            polygon = Polygon(
                [GeoPoint(0.0, 0.0), GeoPoint(0.3 * scale, 0.1), GeoPoint(0.7 * scale, scale)]
            )
            xy = []
            for _ in range(200):
                xy += [(p.x, p.y) for p in _crossing_points(polygon, rng)]
            _assert_array_agrees(polygon, xy)

    def test_empty_array(self):
        polygon = Polygon([GeoPoint(0, 0), GeoPoint(4, 0), GeoPoint(2, 3)])
        empty = np.array([], dtype=np.float64)
        got = polygon.contains_points(empty, empty)
        assert got.dtype == np.bool_ and got.shape == (0,)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks(self, monkeypatch, block):
        """Points go through the band test in blocks of
        ``_ARRAY_BLOCK // edges``; a verdict must not depend on where a
        block ends."""
        monkeypatch.setattr(polygon_mod, "_ARRAY_BLOCK", block)
        rng = random.Random(block)
        ring = _star_ring(rng, 1.0, 2.0, 3.0)
        polygon = Polygon(GeoPoint(x, y) for x, y in ring)
        _assert_array_agrees(polygon, _battery(polygon, rng))


# ----------------------------------------------------------------------
# What the table must not change about a Polygon
# ----------------------------------------------------------------------
class TestTheTableIsDerivedState:
    @given(polygons, seeds)
    @settings(max_examples=40, deadline=None)
    def test_pickles_as_its_vertices(self, polygon, seed):
        blob = pickle.dumps(polygon)
        # A reference to the class and the reduce opcodes, whatever the
        # ring's length: no edge table in the frame.
        assert len(blob) <= len(pickle.dumps(polygon.vertices)) + 64
        loaded = pickle.loads(blob)
        assert loaded == polygon and hash(loaded) == hash(polygon)
        assert loaded.bounding_box == polygon.bounding_box
        assert loaded._edges == polygon._edges
        rng = random.Random(seed)
        _assert_points_agree(loaded, _points(polygon, rng)[:60])
        _assert_rects_agree(loaded, _rects(polygon, rng)[:30])

    def test_equality_and_hash_go_by_vertices_only(self):
        assert [f.name for f in fields(Polygon) if f.compare] == ["vertices"]
        ring = [GeoPoint(0, 0), GeoPoint(4, 0), GeoPoint(4, 3), GeoPoint(0, 3)]
        p, q = Polygon(ring), Polygon(ring + ring[:1])  # closed ring, same vertices
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        # The same ring started elsewhere is another vertex tuple, as it
        # always was.
        assert p != Polygon(ring[1:] + ring[:1])
        assert "_edges" not in repr(p)

    @given(
        st.lists(half_steps, min_size=4, max_size=4),
        st.lists(half_steps, min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_rect_agrees_with_rect(self, bounds, probe):
        """A rectangle drawn as a polygon answers the region protocol as
        the ``Rect`` does, shared edges and corners included (a coarse
        coordinate lattice makes them common)."""
        x0, x1 = sorted(bounds[:2])
        y0, y1 = sorted(bounds[2:])
        assume(x0 < x1 and y0 < y1)  # a flat ring is not a rectangle's polygon
        rect = Rect(x0, y0, x1, y1)
        polygon = Polygon(rect.corners())
        assert polygon.as_rect() == rect
        px0, px1 = sorted(probe[:2])
        py0, py1 = sorted(probe[2:])
        other = Rect(px0, py0, px1, py1)
        assert polygon.intersects_rect(other) == rect.intersects_rect(other)
        assert polygon.contains_rect(other) == rect.contains_rect(other)
        for corner in other.corners():
            assert polygon.contains_point(corner) == rect.contains_point(corner)
