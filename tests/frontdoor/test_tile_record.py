"""An L2 tile entry keeps a tile record, not its fill's whole result.

The record holds what a compose reads: the answers' readings, their
cached sketches with their nodes, and the fill view's sources and
sketch centers.  Composing from records must give exactly what
composing from the fill results gave — the readings in order, the
sketches, their nodes and the display groups — on rectangles, on
polygons with cropped boundary tiles, on interior tiles carrying node
sketches, and on a fill whose groups are a plain list.  An empty answer
is one shared record, and a tile entry costs what it holds: at most
1 kB all-in for an empty tile (a whole fill result cost ~2.9 kB).

A polygon's boundary tiles crop together through the polygon's array
predicate, each over the points its record resolves on its first crop
(``_Tile.points``).  A pinned-seed sweep of random polygons over a warm
portal and a warm 2-shard federation holds that crop to the per-reading
reference below, a sensor on a shared tile edge and a boundary tile
with node sketches among the cases; a tile composed only as interior
never resolves its points, and a cropped one keeps them in 16 B a
reading plus one array header.
"""

from __future__ import annotations

import gc
import math
import sys
import tracemalloc
from dataclasses import replace
from itertools import chain

import numpy as np

from repro.core.aggregates import AggregateSketch
from repro.frontdoor import FrontDoor, FrontDoorConfig, TieredResultCache
from repro.frontdoor import cache as cache_mod
from repro.frontdoor.cache import TILE_EXTENT_DEGREES
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cell_rect
from repro.portal.grouping import DisplayGroup, GroupView

from tests.frontdoor.conftest import (
    SLOT_SECONDS,
    exact_query,
    make_fed,
    make_portal,
)

GENERATION = 1


def _raster(query):
    return TieredResultCache(FrontDoorConfig(), SLOT_SECONDS).raster(query)


def _fill(portal, query, raster):
    """The raster's tiles filled the way the front door fills them: one
    portal batch of tile-sized copies of the query."""
    tiles = [
        replace(query, region=cell_rect(tile, TILE_EXTENT_DEGREES))
        for tile, _ in raster
    ]
    return portal.execute_batch(tiles).results


def _reference(query, raster, results, locate):
    """The compose as it read whole fill results, with the display
    groups built eagerly: ``(readings, sketches, nodes, groups)``, or
    ``None`` when a boundary tile carries node sketches."""
    readings, sketches, nodes, centers = [], [], [], []
    seen: set[int] = set()
    for (_, interior), result in zip(raster, results):
        if not interior and any(a.cached_sketches for a in result.answers):
            return None
        for answer in result.answers:
            for reading in chain(answer.probed_readings, answer.cached_readings):
                if reading.sensor_id in seen:
                    continue
                if not interior and not query.region.contains_point(
                    locate(reading.sensor_id)
                ):
                    continue
                seen.add(reading.sensor_id)
                readings.append(reading)
            if interior:
                sketches += answer.cached_sketches
                nodes += answer.cached_sketch_nodes
        if isinstance(result.groups, GroupView):
            centers += [
                g.center for g in result.groups if g.from_cache_node is not None
            ]
    groups = []
    for reading in readings:
        sketch = AggregateSketch()
        sketch.add(reading.value, reading.timestamp)
        groups.append(
            DisplayGroup(
                center=locate(reading.sensor_id), sketch=sketch, readings=[reading]
            )
        )
    groups += [
        DisplayGroup(center=center, sketch=sketch.copy(), from_cache_node=node)
        for sketch, node, center in zip(sketches, nodes, centers)
    ]
    return readings, sketches, nodes, groups


def _compose(portal, query, results=None, cache=None):
    """Store the query's tiles from ``results`` (filled now when not
    given) in ``cache`` (a fresh one when not given) and compose them;
    returns the composed result and the reference compose over the same
    fill results."""
    raster = _raster(query)
    assert raster
    if results is None:
        results = _fill(portal, query, raster)
    now = portal.clock.now()
    if cache is None:
        cache = TieredResultCache(FrontDoorConfig(), SLOT_SECONDS)
    for (tile, _), result in zip(raster, results):
        assert cache.put_tile(tile, query, result, now, GENERATION)
    composed, missing = cache.get_tiles(query, raster, now, GENERATION)
    assert not missing
    locations = {sensor.sensor_id: sensor.location for sensor in portal.registry}
    return composed, _reference(query, raster, results, locations.__getitem__)


def _assert_same(composed, reference):
    assert reference is not None and composed is not None
    readings, sketches, nodes, groups = reference
    (answer,) = composed.result.answers
    assert [id(r) for r in answer.cached_readings] == [id(r) for r in readings]
    assert not answer.probed_readings
    assert answer.cached_sketches == sketches
    assert answer.cached_sketch_nodes == nodes
    assert composed.result.groups == groups


def _rects(seed: int, n: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x, y = rng.uniform(0.0, 8.0, size=2)
        w, h = rng.uniform(0.2, 2.5, size=2)
        yield Rect(float(x), float(y), float(x + w), float(y + h))


class TestComposeFromRecords:
    def test_rectangle_viewports(self):
        for portal in (make_portal(n=400, seed=3), make_fed(n=500, seed=3)):
            door = FrontDoor(portal)
            for region in _rects(1, 12):
                query = door.quantize(exact_query(region))
                _assert_same(*_compose(portal, query))

    def test_polygon_boundary_tiles_are_cropped(self):
        portal = make_portal(n=500, seed=5)
        cropped = 0
        polygons = [
            Polygon([GeoPoint(1.1, 1.3), GeoPoint(4.7, 1.9), GeoPoint(2.2, 4.6)]),
            Polygon(
                [
                    GeoPoint(5.2, 5.1),
                    GeoPoint(8.9, 5.4),
                    GeoPoint(8.6, 8.8),
                    GeoPoint(7.1, 6.6),
                    GeoPoint(5.4, 8.3),
                ]
            ),
        ]
        for polygon in polygons:
            query = exact_query(polygon)
            raster = _raster(query)
            assert any(not interior for _, interior in raster)
            results = _fill(portal, query, raster)
            composed, reference = _compose(portal, query, results)
            _assert_same(composed, reference)
            inside = {r.sensor_id for r in reference[0]}
            cropped += sum(
                r.sensor_id not in inside
                for result in results
                for a in result.answers
                for r in chain(a.probed_readings, a.cached_readings)
            )
        assert cropped > 0

    def test_interior_tiles_carry_sketches(self):
        for make in (make_portal, make_fed):
            portal = make(n=1500, seed=8, extent=2.0)  # dense: whole nodes per tile
            query = exact_query(Rect(0.0, 0.0, 2.0, 2.0))
            _fill(portal, query, _raster(query))  # probe: the slot caches fill
            portal.clock.advance(1.0)
            results = _fill(portal, query, _raster(query))
            assert any(a.cached_sketches for r in results for a in r.answers)
            composed, reference = _compose(portal, query, results)
            _assert_same(composed, reference)
            assert composed.result.answers[0].cached_sketches

    def test_list_groups_contribute_no_view_parts(self):
        portal = make_portal(n=400, seed=2)
        query = exact_query(Rect(1.0, 1.0, 3.0, 2.0))
        raster = _raster(query)
        results = _fill(portal, query, raster)
        assert any(a.probed_readings for a in results[-1].answers)
        # The last tile's fill answered with plain-list groups; the
        # first tile's view resolves every sensor of the tree.
        results[-1] = replace(results[-1], groups=list(results[-1].groups))
        composed, reference = _compose(portal, query, results)
        _assert_same(composed, reference)
        ((_, sources, centers),) = composed.result.groups.parts
        assert sources == GroupView.locators(results[0].groups)[0]
        assert centers == ()

    def test_empty_tiles_share_one_record(self):
        portal = make_portal(n=50, seed=1, extent=2.0)
        query = exact_query(Rect(3.0, 3.0, 5.0, 4.0))  # no sensor out here
        composed, reference = _compose(portal, query)
        _assert_same(composed, reference)
        assert not composed.result.answers[0].cached_readings
        cache = TieredResultCache(FrontDoorConfig(), SLOT_SECONDS)
        raster = _raster(query)
        for (tile, _), result in zip(raster, _fill(portal, query, raster)):
            cache.put_tile(tile, query, result, portal.clock.now(), GENERATION)
        held = {id(entry.held) for entry in cache._l2.entries.values()}
        assert held == {id(cache_mod._EMPTY_TILE)}


# A sensor exactly on the edge x = 3.0 between tiles (5, 6) and (6, 6),
# and a triangle inside those two tiles around it: both are boundary
# tiles, and both fills answer for the sensor.
ON_EDGE = GeoPoint(3.0, 3.2)
AROUND_EDGE = Polygon([GeoPoint(2.8, 3.05), GeoPoint(3.25, 3.1), GeoPoint(3.05, 3.45)])


def _warm(portal):
    """Every tile of the fleet's extent filled once, then a second on
    the clock: the sweep's fills answer from the slot caches."""
    e = TILE_EXTENT_DEGREES
    tiles = [(ix, iy) for ix in range(int(10 / e)) for iy in range(int(10 / e))]
    for start in range(0, len(tiles), 100):
        portal.execute_batch(
            [exact_query(cell_rect(tile, e)) for tile in tiles[start : start + 100]]
        )
    portal.clock.advance(1.0)


def _random_polygons(seed: int, n: int):
    """Star rings at jittered radii (concave) and on a circle (convex),
    0.1 to 1.5 degrees across, anywhere over the fleet."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        cx, cy = rng.uniform(1.0, 9.0, size=2)
        r = rng.uniform(0.05, 0.75)
        k = int(rng.integers(3, 12))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=k))
        radii = r * (rng.uniform(0.4, 1.0, size=k) if i % 2 else np.ones(k))
        yield Polygon(
            GeoPoint(float(cx + q * math.cos(a)), float(cy + q * math.sin(a)))
            for q, a in zip(radii, angles)
        )


class TestPolygonCropSweep:
    def test_random_polygons_compose_as_the_reference(self):
        for make in (make_portal, lambda **kw: make_fed(n_shards=2, **kw)):
            portal = make(n=600, seed=21)
            portal.register_sensor(ON_EDGE, expiry_seconds=900.0, availability=1.0)
            portal.rebuild_index()
            _warm(portal)
            on_edge = max(s.sensor_id for s in portal.registry)
            cropped = on_edge_seen = 0
            for polygon in [AROUND_EDGE, *_random_polygons(5, 40)]:
                query = exact_query(polygon)
                raster = _raster(query)
                results = _fill(portal, query, raster)
                composed, reference = _compose(portal, query, results)
                _assert_same(composed, reference)
                ids = [r.sensor_id for r in reference[0]]
                assert len(ids) == len(set(ids))
                cropped += sum(not interior for _, interior in raster)
                if polygon is AROUND_EDGE:
                    # Both tiles answer for the sensor; the compose keeps
                    # the first tile's reading, once.
                    holders = [
                        tile
                        for (tile, interior), result in zip(raster, results)
                        for a in result.answers
                        for r in chain(a.probed_readings, a.cached_readings)
                        if r.sensor_id == on_edge and not interior
                    ]
                    assert holders == [(5, 6), (6, 6)]
                    assert ids.count(on_edge) == 1
                    on_edge_seen += 1
            assert on_edge_seen == 1 and cropped > 100

    def test_a_boundary_tile_with_node_sketches_does_not_compose(self):
        for make in (make_portal, lambda **kw: make_fed(n_shards=2, **kw)):
            portal = make(n=1500, seed=8, extent=2.0)  # dense: whole nodes per tile
            query = exact_query(
                Polygon([GeoPoint(0.02, 0.03), GeoPoint(1.97, 0.1), GeoPoint(1.1, 1.96)])
            )
            raster = _raster(query)
            _fill(portal, query, raster)  # probe: the slot caches fill
            portal.clock.advance(1.0)
            results = _fill(portal, query, raster)
            assert any(
                a.cached_sketches
                for (_, interior), result in zip(raster, results)
                if not interior
                for a in result.answers
            )
            composed, reference = _compose(portal, query, results)
            assert composed is None and reference is None


class TestATileCostsWhatItHolds:
    def test_interior_tiles_resolve_no_points(self):
        portal = make_portal(n=500, seed=5)
        cache = TieredResultCache(FrontDoorConfig(), SLOT_SECONDS)
        for region in _rects(2, 6):
            query = FrontDoor(portal).quantize(exact_query(region))
            _assert_same(*_compose(portal, query, cache=cache))
        polygon = Polygon(
            [GeoPoint(1.1, 1.2), GeoPoint(4.9, 1.3), GeoPoint(4.8, 4.7), GeoPoint(1.2, 4.9)]
        )
        raster = _raster(exact_query(polygon))
        assert any(interior for _, interior in raster)
        _assert_same(*_compose(portal, exact_query(polygon), cache=cache))
        # A polygon's interior tiles are keyed like any tile; those it
        # cropped hold points, every other tile holds none.
        boundary = {
            cache.tile_key(tile, exact_query(polygon)) for tile, inside in raster if not inside
        }
        held = {key: entry.held for key, entry in cache._l2.entries.items()}
        assert any(tile.xy is not None for tile in held.values())
        for key, tile in held.items():
            if key not in boundary or not tile.readings:
                assert tile.xy is None, key

    def test_cropped_points_cost_16_bytes_a_reading(self):
        portal = make_portal(n=800, seed=6)
        query = exact_query(
            Polygon([GeoPoint(2.1, 2.3), GeoPoint(6.7, 2.9), GeoPoint(4.2, 6.6)])
        )
        cache = TieredResultCache(FrontDoorConfig(), SLOT_SECONDS)
        _assert_same(*_compose(portal, query, cache=cache))
        tiles = [e.held for e in cache._l2.entries.values() if e.held.xy is not None]
        assert tiles
        header = sys.getsizeof(np.empty((2, 0)))
        for tile in tiles:
            xy = tile.xy
            assert xy.base is None and xy.dtype == np.float64
            assert xy.shape == (2, len(tile.readings))
            assert sys.getsizeof(xy) <= 16 * len(tile.readings) + header
        # Resolved once: a second compose reads the same columns.
        before = [id(tile.xy) for tile in tiles]
        composed, _ = cache.get_tiles(query, _raster(query), portal.clock.now(), GENERATION)
        assert composed is not None
        assert [id(tile.xy) for tile in tiles] == before


def test_an_empty_tile_costs_at_most_1kb():
    """The all-in bytes of 1,000 empty tile entries — record, entry,
    key, LRU slot and index buckets, and whatever else only the tier
    keeps alive — from what clearing the tier frees.  The tiles lie
    among a sparse 8-shard fleet, so their fills reach the shards."""
    fed = make_fed(n=300, seed=4, n_shards=8, extent=25.0)
    tiles = [(ix, iy) for ix in range(50) for iy in range(50)]
    cache = TieredResultCache(FrontDoorConfig(), SLOT_SECONDS)
    now = fed.clock.now()
    gc.collect()
    tracemalloc.start()
    try:
        for start in range(0, len(tiles), 100):
            chunk = [
                exact_query(cell_rect(tile, TILE_EXTENT_DEGREES))
                for tile in tiles[start : start + 100]
            ]
            results = fed.execute_batch(chunk).results
            for query, result in zip(chunk, results):
                if result.result_weight == 0 and len(cache._l2) < 1000:
                    ((tile, _),) = _raster(query)
                    assert cache.put_tile(tile, query, result, now, GENERATION)
            del results, result
        assert len(cache._l2) == 1000
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        cache._l2 = type(cache._l2)()
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_tile = freed / 1000
    assert 0 < per_tile <= 1024, per_tile
