"""What a polygon's tile cover costs the front door.

``TieredResultCache.raster`` makes a polygon's cover with the scanline
``grid.rasterize`` capped at ``MAX_TILES_PER_COVER``: a polygon whose
span has more columns or rows than the cap is turned away before any
tile is classified, and one within it is classified only until its
cover runs over.  A request rasterizes at most once: the lookup's raster
(``None`` when it made none, empty when its cover is not composable)
rides along to ``put_viewport``.
"""

from __future__ import annotations

import pytest

from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.frontdoor import cache as cache_mod
from repro.frontdoor.cache import (
    MAX_TILES_PER_COVER,
    TILE_EXTENT_DEGREES,
    TieredResultCache,
)
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cell_of_point
from repro.portal.query import SensorQuery

from tests.frontdoor.conftest import SLOT_SECONDS, STALENESS, make_portal

NO_ADMISSION = AdmissionConfig(enabled=False)


def _triangle(width: float, x0: float = 0.1, y0: float = 0.13) -> Polygon:
    """An isosceles triangle ``width`` degrees wide and tall."""
    return Polygon(
        [
            GeoPoint(x0, y0),
            GeoPoint(x0 + width, y0),
            GeoPoint(x0 + width / 2.0, y0 + width),
        ]
    )


def _query(region, **kwargs) -> SensorQuery:
    return SensorQuery(region=region, staleness_seconds=STALENESS, **kwargs)


# ----------------------------------------------------------------------
# Predicate calls per raster
# ----------------------------------------------------------------------
@pytest.fixture
def classified(monkeypatch) -> list[tuple[int, int]]:
    """The tile of every outermost polygon predicate call (a rectangle
    test's tile, or the tile a point test's point lies in); the calls
    one predicate makes to another are not counted again."""
    tiles: list[tuple[int, int]] = []
    depth = [0]

    def counting(original, tile_of):
        def predicate(self, *args):
            if not depth[0]:
                tiles.append(tile_of(*args))
            depth[0] += 1
            try:
                return original(self, *args)
            finally:
                depth[0] -= 1

        return predicate

    def point_tile(x: float, y: float) -> tuple[int, int]:
        return cell_of_point(GeoPoint(x, y), TILE_EXTENT_DEGREES)

    def rect_tile(rect: Rect) -> tuple[int, int]:
        return point_tile(
            (rect.min_x + rect.max_x) / 2.0, (rect.min_y + rect.max_y) / 2.0
        )

    for name, tile_of in (
        ("contains_rect", rect_tile),
        ("intersects_rect", rect_tile),
        ("_contains_xy", point_tile),
    ):
        monkeypatch.setattr(Polygon, name, counting(getattr(Polygon, name), tile_of))
    return tiles


def _raster(region) -> list:
    return TieredResultCache(FrontDoorConfig(), SLOT_SECONDS).raster(_query(region))


def test_a_span_over_the_cap_classifies_no_tile(classified):
    # 100 columns and rows of 0.5-degree tiles: over the cap before any
    # tile is looked at.
    assert _raster(_triangle(50.0)) == []
    assert classified == []


@pytest.mark.parametrize(
    "polygon",
    [
        _triangle(20.0),
        # Vertices on tile corners and edges through them: the boundary
        # takes the exact predicate pair.
        _triangle(20.0, x0=0.0, y0=0.0),
    ],
    ids=["off-grid", "snapped"],
)
def test_a_cover_over_the_cap_stops_at_the_tile_past_it(classified, polygon):
    # 40 x 40 tiles of span, ~860 in the cover: within the span bound,
    # turned away once its cover holds one tile more than the cap.
    assert _raster(polygon) == []
    assert 0 < len(set(classified)) <= MAX_TILES_PER_COVER + 1


def test_a_cover_within_the_cap_classifies_its_runs_not_its_tiles(classified):
    raster = _raster(_triangle(4.0))
    assert 0 < len(raster) <= MAX_TILES_PER_COVER
    # Boundary tiles an edge crosses cleanly and the outer runs take no
    # predicate call; each inner run takes one.
    assert len(classified) < len(raster) // 4


# ----------------------------------------------------------------------
# Rasterizations per request
# ----------------------------------------------------------------------
@pytest.fixture
def rasterized(monkeypatch) -> list[Polygon]:
    calls: list[Polygon] = []
    original = cache_mod.rasterize

    def counting(polygon, *args, **kwargs):
        calls.append(polygon)
        return original(polygon, *args, **kwargs)

    monkeypatch.setattr(cache_mod, "rasterize", counting)
    return calls


def _door(**portal_kwargs) -> FrontDoor:
    portal = make_portal(n=300, seed=5, **portal_kwargs)
    return FrontDoor(portal, FrontDoorConfig(admission=NO_ADMISSION))


HEXAGON = Polygon(
    [
        GeoPoint(2.1, 3.0),
        GeoPoint(3.0, 1.6),
        GeoPoint(4.6, 1.7),
        GeoPoint(5.3, 3.1),
        GeoPoint(4.4, 4.5),
        GeoPoint(2.8, 4.4),
    ]
)
# 20 x 20 tiles of span: a miss whose cover is over the cap.
OVER_CAP = _triangle(9.8)


@pytest.mark.parametrize(
    "query",
    [
        _query(HEXAGON),
        _query(OVER_CAP),
        # Not tile-eligible: no raster at the lookup, one for the L1
        # entry's per-tile invalidation.
        _query(HEXAGON, sample_size=10),
    ],
    ids=["within-cap", "over-cap", "sampled"],
)
def test_a_request_rasterizes_at_most_once(rasterized, query):
    door = _door()
    served = door.execute(query)
    assert served.served_from == "portal"
    assert len(rasterized) == 1
    # The repeat is an L1 hit: no raster at all.
    assert door.execute(query).served_from == "l1"
    assert len(rasterized) == 1


def test_an_over_cap_miss_is_stored_without_tiles(rasterized):
    door = _door()
    door.execute(_query(OVER_CAP))
    (entry,) = door.cache._l1.entries.values()
    assert entry.tiles is None and entry.cells is None
    assert entry.region == OVER_CAP.bounding_box


def test_a_capped_portal_rasterizes_once_for_the_entry(rasterized):
    # A collection cap makes no polygon tile-serveable: the lookup makes
    # no raster, and the L1 entry makes the one it invalidates by.
    door = _door(max_sensors_per_query=20)
    door.execute(_query(HEXAGON))
    assert len(rasterized) == 1
    (entry,) = door.cache._l1.entries.values()
    assert entry.tiles is not None


def test_an_l2_compose_rasterizes_once(rasterized):
    door = _door()
    door.execute(_query(Rect(2.0, 1.5, 5.5, 5.0)))  # fills the hexagon's tiles
    assert rasterized == []
    served = door.execute(_query(HEXAGON))
    assert served.served_from == "l2"
    assert len(rasterized) == 1


def test_a_batch_rasterizes_each_request_at_most_once(rasterized):
    door = _door()
    queries = [_query(HEXAGON), _query(OVER_CAP), _query(_triangle(1.5, 6.1, 6.2))]
    door.execute_batch(queries)
    assert len(rasterized) == len(queries)
