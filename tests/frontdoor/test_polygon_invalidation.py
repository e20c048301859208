"""Cell-precise invalidation of cached polygon viewports.

A polygon entry remembers the tile cells its cover actually touches
(the geoblock-style cell union), so a write delta evicts it only when
the dirty region intersects a *covered* cell — a write inside the
polygon's bounding box but outside every covered cell leaves the entry
alive, where a bounding-box entry would have been dropped.
"""

from __future__ import annotations

from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.frontdoor.cache import TILE_EXTENT_DEGREES
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cells_covering, rasterize
from repro.portal.query import SensorQuery
from repro.sensors.sensor import Reading

from tests.frontdoor.conftest import STALENESS, make_portal

NO_ADMISSION = AdmissionConfig(enabled=False)

# A right triangle: its bounding box's upper-right corner tiles are not
# part of the cover (everything beyond the hypotenuse x + y = 5).
TRIANGLE = Polygon(
    [GeoPoint(0.5, 0.5), GeoPoint(4.5, 0.5), GeoPoint(0.5, 4.5)]
)
INSIDE = (1.0, 1.0)  # in a covered cell
CORNER = (4.25, 4.25)  # in the bbox, outside every covered cell


def _portal():
    portal = make_portal(n=300, seed=11)
    for x, y in (INSIDE, CORNER):
        portal.register_sensor(
            GeoPoint(x, y), expiry_seconds=600.0, availability=1.0
        )
    portal.rebuild_index()
    return portal


def _door(portal, **config_kwargs) -> FrontDoor:
    config_kwargs.setdefault("admission", NO_ADMISSION)
    return FrontDoor(portal, FrontDoorConfig(**config_kwargs))


def _write(portal, location: tuple[float, float]) -> None:
    sensor = next(
        s
        for s in portal.registry
        if (s.location.x, s.location.y) == location
    )
    now = portal.clock.now()
    portal._trees[sensor.sensor_type].insert_readings_batch(
        [
            Reading(
                sensor_id=sensor.sensor_id,
                value=99_999.0,
                timestamp=now,
                expires_at=now + sensor.expiry_seconds,
            )
        ],
        fetched_at=now,
    )


def _query() -> SensorQuery:
    return SensorQuery(region=TRIANGLE, staleness_seconds=STALENESS)


def test_the_corner_tile_is_genuinely_uncovered():
    interior, boundary = rasterize(TRIANGLE, 0.5)
    cover = interior + boundary
    bbox_cover = cells_covering(TRIANGLE.bounding_box, 0.5)
    assert (8, 8) in bbox_cover
    assert (8, 8) not in cover


def test_write_inside_a_covered_cell_evicts():
    portal = _portal()
    door = _door(portal)
    first = door.execute(_query())
    assert first.served_from == "portal"
    assert door.execute(_query()).cache_hit
    _write(portal, INSIDE)
    assert door.cache.stats.invalidated_write > 0
    refreshed = door.execute(_query())
    assert refreshed.served_from == "portal"
    # The recomputed answer sees the planted outlier.
    assert any(
        a.estimate("max") == 99_999.0
        for a in refreshed.result.answers
        if a.result_weight
    )


def test_write_outside_every_covered_cell_survives():
    portal = _portal()
    door = _door(portal)
    door.execute(_query())
    assert door.execute(_query()).cache_hit
    invalidated = door.cache.stats.invalidated_write
    _write(portal, CORNER)
    assert door.cache.stats.invalidated_write == invalidated
    assert door.execute(_query()).cache_hit


def test_bounding_box_viewport_would_have_been_evicted():
    # The same corner write *does* evict a rectangle viewport over the
    # triangle's bounding box — the cell union is what buys precision.
    portal = _portal()
    door = _door(portal)
    bbox = SensorQuery(
        region=Rect(0.5, 0.5, 4.5, 4.5), staleness_seconds=STALENESS
    )
    door.execute(bbox)
    assert door.execute(bbox).cache_hit
    _write(portal, CORNER)
    assert door.execute(bbox).served_from == "portal"


def test_a_polygon_stored_without_a_raster_still_invalidates_per_cell():
    # With L2 off the lookup makes no raster to hand on; ``put_viewport``
    # then covers the polygon itself instead of falling back to its box.
    portal = _portal()
    door = _door(portal, l2_enabled=False)
    door.execute(_query())
    (entry,) = door.cache._l1.entries.values()
    interior, boundary = rasterize(TRIANGLE, TILE_EXTENT_DEGREES)
    assert entry.cells is not None
    assert len(entry.cells) == len(interior) + len(boundary)
    _write(portal, CORNER)
    assert door.execute(_query()).cache_hit
    _write(portal, INSIDE)
    assert door.execute(_query()).served_from == "portal"
