"""The tile fill and its fallback.

A tile-planned miss fills its missing tiles in one portal batch and
composes from the cache.  The fill writes only the sensors of the tiles
it fills, so it never drops the viewport's already-cached tiles from
under the compose; when a compose does fail (a fill came back partial),
the viewport is executed whole, counted in ``fill_fallbacks`` by reason
and charged the fill it waited for as well as its own execution.
"""

from __future__ import annotations

from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.frontdoor.cache import MAX_TILES_PER_COVER
from repro.geometry import Rect

from tests.frontdoor.conftest import exact_query, make_fed, make_portal

NO_ADMISSION = AdmissionConfig(enabled=False)


def test_a_partial_fill_falls_back_and_is_charged_the_fill():
    fed = make_fed(n=400, seed=11, n_shards=3)
    door = FrontDoor(fed, FrontDoorConfig(admission=NO_ADMISSION))
    fed.kill_shard(1)
    query = exact_query(Rect(4.0, 1.0, 6.0, 9.0))  # 64 tiles, every shard
    assert len(door.cache.raster(query)) == MAX_TILES_PER_COVER
    batch = door.execute_batch([query])
    (served,) = batch.results
    assert served.served_from == "portal" and served.result.partial
    stats = door.cache.stats
    assert stats.fill_fallbacks == stats.fill_fallbacks_partial == 1
    # The lone request waited for the fill batch, then for its own
    # execution: its service time is the batch's whole makespan, not
    # the fallback execution's alone.
    assert served.service_seconds > served.result.end_to_end_seconds
    assert served.service_seconds == batch.service_seconds


def test_a_fill_leaves_the_viewports_cached_tiles_composable():
    portal = make_portal(n=600, seed=4)
    door = FrontDoor(portal, FrontDoorConfig(admission=NO_ADMISSION))
    door.execute(exact_query(Rect(2.0, 2.0, 4.0, 4.0)))  # 16 tiles cached
    wider = door.execute(exact_query(Rect(2.0, 2.0, 6.0, 6.0)))  # 48 to fill
    assert wider.served_from == "portal"
    assert wider.tiles_composed == 64
    assert door.cache.stats.fill_fallbacks == 0
    assert door.execute(exact_query(Rect(2.0, 2.0, 6.0, 6.0))).served_from == "l1"
