"""A polygon viewport composes from L2 tiles on the process backend.

A boundary tile crops through its own fill view — on this backend the
coordinator's per-shard ``sensor_id -> Sensor`` table — so a polygon
over tiles a rectangle already filled is an L2 hit, as it is in
process, and its answer is the in-process twin's and a cache-off
execution's.
"""

from __future__ import annotations

from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.frontdoor.cache import TILE_EXTENT_DEGREES
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cell_rect

from tests.frontdoor.conftest import exact_query, make_fed, values_by_sensor

TRIANGLE = Polygon([GeoPoint(1.2, 1.3), GeoPoint(3.8, 1.6), GeoPoint(2.1, 3.7)])


def test_polygon_over_warm_tiles_is_an_l2_hit_on_both_backends():
    config = FrontDoorConfig(admission=AdmissionConfig(enabled=False))
    proc = make_fed(execution="process")
    try:
        twin, plain = make_fed(), make_fed()
        answers = []
        for fed in (proc, twin):
            door = FrontDoor(fed, config)
            filled = door.execute(exact_query(Rect(1.0, 1.0, 4.0, 4.0)))
            assert filled.served_from == "portal"
            served = door.execute(exact_query(TRIANGLE))
            assert served.served_from == "l2"
            assert door.cache.stats.fill_fallbacks == 0
            answers.append(values_by_sensor(served.result))
        direct = values_by_sensor(plain.execute(exact_query(TRIANGLE)))
        assert direct and answers == [direct, direct]
        # The boundary tiles held sensors the crop left out.
        location = {s.sensor_id: s.location for s in plain.registry}
        boundary = [
            cell_rect(tile, TILE_EXTENT_DEGREES)
            for tile, interior in door.cache.raster(served.query)
            if not interior
        ]
        cropped = [
            sensor_id
            for sensor_id in values_by_sensor(filled.result)
            if sensor_id not in direct
            and any(tile.contains_point(location[sensor_id]) for tile in boundary)
        ]
        assert cropped
    finally:
        proc.close()
