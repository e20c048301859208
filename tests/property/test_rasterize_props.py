"""The scanline raster answers as the per-cell loop did.

``repro.geometry.grid.rasterize`` decides most cells of a polygon's
cover without a predicate: a cell an edge crosses cleanly is boundary,
and a run of cells no edge comes near is decided by one point test.
Only cells within its margin of an edge's vertex, or of a crossing near
a cell corner, take the exact ``contains_rect`` / ``intersects_rect``
pair.  The loop it replaced — that pair on every cell of the bounding
box's cover — is kept verbatim in ``tests/geometry/reference_grid.py``,
and the two must return the same ``(interior, boundary)`` lists in the
same scan order: on convex, concave, shard-clipped and near-degenerate
rings, on rings whose vertices and edges lie exactly on tile lines and
corners, and at the cap (``limit``) exactly at and one under the
cover's size.

Each example is a polygon and an extent drawn by hypothesis, so a
failure reproduces from the values it prints.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cover_span, rasterize

from tests.geometry import reference_grid as reference
from tests.property.test_polygon_edge_table_props import (
    _star_ring,
    centers,
    corridors,
    far_stars,
    hulls,
    seeds,
    slivers,
    snapped,
    stars,
)

# The extents a family is rasterized at, before scaling by a power of
# two to a cover the reference can afford: dyadic ones keep every tile
# line exact, 0.3 does not.
BASES = (0.25, 0.5, 1.0, 0.3)
# The reference classifies every cell of the span: keep it at most this
# many columns and rows.
MAX_SIDE = 24


@st.composite
def clipped(draw):
    """A star or hull clipped to a block of tiles (a shard's share):
    vertices stamped exactly onto tile lines, edges along them."""
    polygon = draw(st.one_of(stars(), hulls()))
    box = polygon.bounding_box
    extent = _fit(box, 0.25, 0)
    rng = random.Random(draw(seeds))
    cut = Rect(
        round(rng.uniform(box.min_x, box.center.x) / extent) * extent,
        round(rng.uniform(box.min_y, box.center.y) / extent) * extent,
        round(rng.uniform(box.center.x, box.max_x) / extent) * extent,
        round(rng.uniform(box.center.y, box.max_y) / extent) * extent,
    )
    clip = polygon.clip_to_rect(cut)
    return polygon if clip is None else clip


polygons = st.one_of(
    hulls(), stars(), corridors(), snapped(), far_stars(), slivers(), clipped()
)


@st.composite
def fitted(draw):
    """A polygon of the families above at a ``_fit`` extent."""
    polygon = draw(polygons)
    base = draw(st.sampled_from(BASES))
    zoom = draw(st.integers(min_value=0, max_value=3))
    return polygon, _fit(polygon.bounding_box, base, zoom)


@st.composite
def on_grid(draw):
    """3 to 6 points of the tile lattice — its corners, or the
    half-extent lattice (corners, side midpoints and centres) — sorted
    by angle around their centroid, with the extent: edges through
    corners and along tile lines, vertices on cell bounds.  At a non-dyadic extent the tile lines ``i * extent`` carry
    rounding, and so do the crossings of an edge through a corner."""
    extent = draw(st.sampled_from((0.5, 0.25, 0.3, 0.1, 0.7)))
    step = extent / 2.0 if draw(st.booleans()) else extent
    ox, oy = (round(c / extent) for c in draw(centers))
    ks = st.integers(min_value=-8, max_value=8)
    points = {
        ((ox + draw(ks)) * step, (oy + draw(ks)) * step)
        for _ in range(draw(st.integers(min_value=3, max_value=6)))
    }
    assume(len(points) >= 3)
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    ring = sorted(points, key=lambda p: math.atan2(p[1] - my, p[0] - mx))
    return Polygon(GeoPoint(x, y) for x, y in ring), extent


def _fits(box: Rect, extent: float) -> bool:
    ix0, iy0, ix1, iy1 = cover_span(box, extent)
    return ix1 - ix0 < MAX_SIDE and iy1 - iy0 < MAX_SIDE


def _fit(box: Rect, base: float, zoom: int) -> float:
    """The finest ``base`` times a power of two whose span has at most
    ``MAX_SIDE`` columns and rows, then ``zoom`` doublings coarser."""
    extent = base
    while not _fits(box, extent):
        extent *= 2.0
    while extent > base / 1024.0 and _fits(box, extent / 2.0):
        extent /= 2.0
    return extent * 2.0**zoom


def _check(polygon: Polygon, extent: float) -> None:
    expected = reference.rasterize(polygon, extent)
    assert rasterize(polygon, extent) == expected
    n = len(expected[0]) + len(expected[1])
    assert rasterize(polygon, extent, limit=n) == expected
    assert rasterize(polygon, extent, limit=n - 1) is None
    for limit in (1, 8, 64):
        capped = reference.limited(polygon, extent, limit)
        assert rasterize(polygon, extent, limit) == capped


@given(st.one_of(fitted(), on_grid()))
@settings(max_examples=300, deadline=None)
def test_rasterize_equals_the_per_cell_loop(case):
    _check(*case)


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
def _ring(*points: tuple[float, float]) -> Polygon:
    return Polygon(GeoPoint(x, y) for x, y in points)


@pytest.mark.parametrize(
    "polygon, extent",
    [
        # A diamond whose edges run through tile corners.
        (_ring((1.0, 5.0), (5.0, 1.0), (9.0, 5.0), (5.0, 9.0)), 1.0),
        (_ring((1.0, 5.0), (5.0, 1.0), (9.0, 5.0), (5.0, 9.0)), 0.5),
        # A rectangle drawn on tile lines, and one a hair inside them.
        (_ring((1.0, 1.0), (3.0, 1.0), (3.0, 2.5), (1.0, 2.5)), 0.5),
        (_ring((1.0 + 1e-15, 1.0), (3.0, 1.0), (3.0, 2.5 - 1e-15), (1.0, 2.5)), 0.5),
        # A right triangle whose hypotenuse passes every corner it meets.
        (_ring((0.5, 0.5), (4.5, 0.5), (0.5, 4.5)), 0.5),
        # Inside one tile; on one tile's corner; along one tile line.
        (_ring((0.6, 0.6), (0.9, 0.6), (0.7, 0.9)), 0.5),
        (_ring((0.5, 0.5), (0.9, 0.6), (0.7, 0.9)), 0.5),
        (_ring((0.5, 0.5), (2.0, 0.5), (1.2, 0.5 + 1e-13)), 0.5),
        # A concave notch entering through a shared tile side.
        (
            _ring(
                (0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.25, 2.0), (1.0, 1.2),
                (0.75, 2.0), (0.0, 2.0),
            ),
            0.5,
        ),
        # Extents that are not dyadic; the first's hypotenuse passes
        # every tile corner it meets, as rounded.
        (_ring((0.0, 0.0), (2.4, 0.0), (0.0, 2.4)), 0.3),
        (_ring((0.05, 0.02), (2.95, 0.4), (1.7, 2.8)), 0.1),
        (_ring((-3.3, -0.9), (0.3, -2.1), (0.9, 0.9), (-0.3, 0.3)), 0.3),
        # An edge whose run (then rise) is subnormal: its slope overflows.
        (
            _ring(
                (-1.390671161567e-310, 0.0625), (1.0, 0.0625), (1.0, -0.0625),
                (1.390671161567e-310, -0.0625),
            ),
            0.0625,
        ),
        (
            _ring(
                (0.0625, -1.390671161567e-310), (0.0625, 1.0), (-0.0625, 1.0),
                (-0.0625, 1.390671161567e-310),
            ),
            0.0625,
        ),
    ],
)
def test_named_cases(polygon, extent):
    _check(polygon, extent)


def _l_shape(extra_tiles: int) -> Polygon:
    """An 8 x 8 block of 0.5-degree tiles plus the bottom
    ``extra_tiles`` tiles of a ninth column."""
    if not extra_tiles:
        return _ring((0.1, 0.1), (3.9, 0.1), (3.9, 3.9), (0.1, 3.9))
    top = 0.5 * extra_tiles - 0.1
    return _ring((0.1, 0.1), (4.2, 0.1), (4.2, top), (3.9, top), (3.9, 3.9), (0.1, 3.9))


@pytest.mark.parametrize("extra, kept", [(0, True), (1, False), (2, False)])
def test_the_cap_keeps_64_tiles_and_refuses_65(extra, kept):
    polygon = _l_shape(extra)
    interior, boundary = reference.rasterize(polygon, 0.5)
    assert len(interior) + len(boundary) == 64 + extra
    capped = rasterize(polygon, 0.5, limit=64)
    assert capped == ((interior, boundary) if kept else None)
    assert rasterize(polygon, 0.5, limit=64 + extra) == (interior, boundary)


def test_a_span_over_the_cap_is_refused_whole():
    # 65 columns in one row: a thin sliver has one tile per column.
    sliver = _ring((0.1, 0.1), (32.4, 0.2), (0.1, 0.3))
    interior, boundary = reference.rasterize(sliver, 0.5)
    assert len(interior) + len(boundary) == 65
    assert rasterize(sliver, 0.5, limit=64) is None
    assert rasterize(sliver, 0.5, limit=65) == (interior, boundary)
