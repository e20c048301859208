"""Unit tests for the tiered result cache: tile math, LRU mechanics,
validity reasons, composition, and the stats accounting."""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateSketch
from repro.core.lookup import QueryAnswer
from repro.frontdoor import FrontDoorConfig, TieredResultCache
from repro.frontdoor import cache as cache_mod
from repro.frontdoor.cache import (
    L2_CAPACITY,
    MAX_TILES_PER_COVER,
    TILE_EXTENT_DEGREES,
    result_oldest_timestamp,
)
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cell_rect, cells_covering, cover_span, span_bounds
from repro.portal.grouping import GroupView
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery
from repro.sensors.sensor import Reading, Sensor

SLOT = 120.0


def _config(**kwargs) -> FrontDoorConfig:
    return FrontDoorConfig(**kwargs)


@contextmanager
def _tile_constants(
    extent: float,
    l2_capacity: int = L2_CAPACITY,
    max_tiles: int = MAX_TILES_PER_COVER,
):
    """The cache module's tile constants at other values, for the index
    oracles below: the write-delta index must drop exactly what a scan
    would at any tile extent (a dyadic and a non-dyadic one), through L2
    evictions and through covers too large to keep."""
    with mock.patch.multiple(
        cache_mod,
        TILE_EXTENT_DEGREES=extent,
        L2_CAPACITY=l2_capacity,
        MAX_TILES_PER_COVER=max_tiles,
    ):
        yield


def _result(query: SensorQuery, readings: list[Reading]) -> PortalResult:
    answer = QueryAnswer(probed_readings=list(readings))
    return PortalResult(
        query=query,
        groups=[],
        answers=[answer],
        processing_seconds=0.0,
        collection_seconds=0.0,
    )


def _reading(sensor_id: int, value: float = 1.0, timestamp: float = 0.0) -> Reading:
    return Reading(
        sensor_id=sensor_id,
        value=value,
        timestamp=timestamp,
        expires_at=timestamp + 600.0,
    )


def _query(region, staleness: float = 120.0, **kwargs) -> SensorQuery:
    return SensorQuery(region=region, staleness_seconds=staleness, **kwargs)


# ----------------------------------------------------------------------
# Tile math
# ----------------------------------------------------------------------
class TestTileCover:
    def test_interior_rect_single_tile(self):
        assert cells_covering(Rect(0.1, 0.1, 0.4, 0.4), 0.5) == [(0, 0)]

    def test_aligned_rect_is_exactly_its_tiles(self):
        tiles = cells_covering(Rect(1.0, 0.5, 2.0, 1.5), 0.5)
        assert sorted(tiles) == [(2, 1), (2, 2), (3, 1), (3, 2)]

    def test_boundary_edge_does_not_drag_in_next_tile(self):
        # max edge exactly on the 0.5 boundary: the next (measure-zero
        # overlap) column must not appear.
        assert cells_covering(Rect(0.0, 0.0, 0.5, 0.5), 0.5) == [(0, 0)]

    def test_negative_coordinates(self):
        assert cells_covering(Rect(-0.4, -0.4, -0.1, -0.1), 0.5) == [(-1, -1)]

    def test_degenerate_point_rect_covered(self):
        assert cells_covering(Rect(0.7, 0.7, 0.7, 0.7), 0.5) == [(1, 1)]

    def test_tiles_union_covers_region(self):
        region = Rect(1.23, -4.56, 7.89, 2.34)
        tiles = cells_covering(region, 0.5)
        min_x = min(cell_rect(t, 0.5).min_x for t in tiles)
        min_y = min(cell_rect(t, 0.5).min_y for t in tiles)
        max_x = max(cell_rect(t, 0.5).max_x for t in tiles)
        max_y = max(cell_rect(t, 0.5).max_y for t in tiles)
        assert min_x <= region.min_x and min_y <= region.min_y
        assert max_x >= region.max_x and max_y >= region.max_y

    def test_tile_rect_roundtrip(self):
        for tile in [(0, 0), (-3, 7), (12, -1)]:
            assert cells_covering(cell_rect(tile, 0.5), 0.5) == [tile]

    def test_unbounded_rect_has_no_cover(self):
        for region in (Rect(0.0, 0.0, math.inf, 1.0), Rect(-math.inf, -1.0, 1.0, 1.0)):
            assert cover_span(region, 0.5) is None
            with pytest.raises(ValueError):
                cells_covering(region, 0.5)

    def test_span_bounds_are_the_cells_union(self):
        region = Rect(1.23, -4.56, 7.89, 2.34)
        tiles = cells_covering(region, 0.5)
        union = Rect.union_of([cell_rect(t, 0.5) for t in tiles])
        span = cover_span(region, 0.5)
        assert Rect(*span_bounds(span, 0.5)) == union
        assert (span[0], span[1]) == tiles[0] and (span[2], span[3]) == tiles[-1]


class TestOldestTimestamp:
    def test_empty_result_never_goes_stale(self):
        q = _query(Rect(0, 0, 1, 1))
        assert result_oldest_timestamp(_result(q, [])) == math.inf

    def test_minimum_over_readings_and_sketches(self):
        q = _query(Rect(0, 0, 1, 1))
        result = _result(q, [_reading(1, timestamp=50.0)])
        result.answers[0].cached_readings.append(_reading(2, timestamp=30.0))
        sketch = QueryAnswer().combined_sketch()
        sketch.count, sketch.oldest_timestamp = 3, 10.0
        result.answers[0].cached_sketches.append(sketch)
        assert result_oldest_timestamp(result) == 10.0


# ----------------------------------------------------------------------
# Eligibility and keys
# ----------------------------------------------------------------------
class TestEligibility:
    def test_exact_rect_is_tile_eligible(self):
        assert TieredResultCache.tile_eligible(_query(Rect(0, 0, 1, 1)))

    def test_sampled_zoomed_clustered_are_not(self):
        rect = Rect(0, 0, 1, 1)
        poly = Polygon(
            [GeoPoint(0, 0), GeoPoint(1, 0), GeoPoint(1, 1), GeoPoint(0, 1)]
        )
        assert not TieredResultCache.tile_eligible(_query(rect, sample_size=10))
        assert not TieredResultCache.tile_eligible(_query(rect, zoom_level=3))
        assert not TieredResultCache.tile_eligible(_query(rect, cluster_miles=5.0))
        assert not TieredResultCache.tile_eligible(_query(poly, sample_size=10))
        assert not TieredResultCache.tile_eligible(_query(poly, zoom_level=3))

    def test_exact_polygon_is_tile_eligible(self):
        poly = Polygon(
            [GeoPoint(0, 0), GeoPoint(2, 0), GeoPoint(1, 2)]
        )
        assert TieredResultCache.tile_eligible(_query(poly))

    def test_l1_key_distinguishes_query_identity(self):
        rect = Rect(0, 0, 1, 1)
        base = TieredResultCache.l1_key(_query(rect))
        assert base is not None
        assert TieredResultCache.l1_key(_query(rect)) == base
        assert TieredResultCache.l1_key(_query(rect, sample_size=10)) != base
        assert TieredResultCache.l1_key(_query(rect, staleness=60.0)) != base
        assert TieredResultCache.l1_key(_query(Rect(0, 0, 1, 2))) != base


# ----------------------------------------------------------------------
# L1 mechanics
# ----------------------------------------------------------------------
class TestL1:
    def test_store_then_hit(self):
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0, 0, 1, 1))
        result = _result(q, [_reading(1, timestamp=0.0)])
        assert cache.put_viewport(q, result, now=0.0, generation=1)
        entry = cache.get_viewport(cache.l1_key(q), now=10.0, generation=1)
        assert entry.held is result and entry.query == q
        assert cache.stats.l1_hits == 1 and cache.stats.stores == 1

    def test_lru_eviction_order(self):
        cache = TieredResultCache(_config(l1_capacity=2), SLOT)
        queries = [_query(Rect(i, 0, i + 1, 1)) for i in range(3)]
        for q in queries[:2]:
            cache.put_viewport(q, _result(q, []), now=0.0, generation=1)
        # Touch the first entry so the *second* becomes LRU.
        assert cache.get_viewport(cache.l1_key(queries[0]), now=0.0, generation=1) is not None
        cache.put_viewport(queries[2], _result(queries[2], []), now=0.0, generation=1)
        assert cache.stats.l1_evictions == 1
        assert cache.get_viewport(cache.l1_key(queries[0]), now=0.0, generation=1) is not None
        assert cache.get_viewport(cache.l1_key(queries[1]), now=0.0, generation=1) is None
        assert cache.get_viewport(cache.l1_key(queries[2]), now=0.0, generation=1) is not None

    def test_capacity_zero_disables_l1(self):
        cache = TieredResultCache(_config(l1_capacity=0), SLOT)
        q = _query(Rect(0, 0, 1, 1))
        assert not cache.put_viewport(q, _result(q, []), now=0.0, generation=1)
        assert cache.get_viewport(cache.l1_key(q), now=0.0, generation=1) is None
        assert len(cache._l1) == 0

    def test_partial_answer_refused(self):
        from repro.federation.federated import FederatedResult

        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0, 0, 1, 1))
        partial = FederatedResult(
            query=q,
            groups=[],
            answers=[QueryAnswer()],
            processing_seconds=0.0,
            collection_seconds=0.0,
            failed_shards=(1,),
        )
        assert partial.partial
        assert not cache.put_viewport(q, partial, now=0.0, generation=1)
        assert cache.stats.uncacheable == 1
        assert len(cache._l1) == 0

    def test_validity_reasons_metered_separately(self):
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0, 0, 1, 1), staleness=30.0)
        fill = lambda: cache.put_viewport(
            q, _result(q, [_reading(1, timestamp=0.0)]), now=0.0, generation=1
        )
        fill()
        assert cache.get_viewport(cache.l1_key(q), now=0.0, generation=2) is None
        assert cache.stats.invalidated_generation == 1
        fill()
        assert cache.get_viewport(cache.l1_key(q), now=SLOT + 1.0, generation=1) is None
        assert cache.stats.invalidated_slot == 1
        fill()
        # Same slot window, but the stored reading aged past staleness.
        assert cache.get_viewport(cache.l1_key(q), now=40.0, generation=1) is None
        assert cache.stats.invalidated_stale == 1


# ----------------------------------------------------------------------
# L2 mechanics
# ----------------------------------------------------------------------
class TestL2:
    def _fill_tiles(self, cache, q, tiles, readings_per_tile):
        for tile, readings in zip(tiles, readings_per_tile):
            tile_q = _query(cell_rect(tile, TILE_EXTENT_DEGREES))
            cache.put_tile(tile, q, _result(tile_q, readings), now=0.0, generation=1)

    def test_missing_tiles_reported_then_composed(self):
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0.1, 0.1, 0.9, 0.4))  # two 0.5-degree tiles
        tiles = cells_covering(q.region, TILE_EXTENT_DEGREES)
        assert len(tiles) == 2
        composed, missing = cache.get_tiles(q, cache.raster(q), now=0.0, generation=1)
        assert composed is None and sorted(missing) == sorted(tiles)
        self._fill_tiles(cache, q, tiles, [[_reading(1)], [_reading(2)]])
        composed, missing = cache.get_tiles(q, cache.raster(q), now=0.0, generation=1)
        assert missing == [] and composed is not None
        assert composed.tiles == 2
        assert composed.result.result_weight == 2
        assert cache.stats.l2_hits == 1

    def test_compose_deduplicates_shared_edge_sensors(self):
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0.1, 0.1, 0.9, 0.4))
        tiles = cells_covering(q.region, TILE_EXTENT_DEGREES)
        # Sensor 7 sits on the shared tile edge: both fills carry it.
        self._fill_tiles(
            cache, q, tiles, [[_reading(1), _reading(7)], [_reading(7), _reading(2)]]
        )
        composed, _ = cache.get_tiles(q, cache.raster(q), now=0.0, generation=1)
        assert composed is not None
        ids = sorted(
            r.sensor_id for r in composed.result.answers[0].cached_readings
        )
        assert ids == [1, 2, 7]

    def test_record_false_suppresses_hit_counter(self):
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0.1, 0.1, 0.4, 0.4))
        self._fill_tiles(cache, q, [(0, 0)], [[_reading(1)]])
        composed, _ = cache.get_tiles(q, cache.raster(q), now=0.0, generation=1, record=False)
        assert composed is not None
        assert cache.stats.l2_hits == 0

    def test_ineligible_and_oversized_covers_opt_out(self):
        cache = TieredResultCache(_config(), SLOT)
        sampled = _query(Rect(0, 0, 1, 1), sample_size=10)
        assert cache.get_tiles(sampled, cache.raster(sampled), now=0.0, generation=1) == (None, [])
        huge = _query(Rect(0, 0, 9.9, 9.9))  # 20 x 20 tiles: over the cover bound
        assert len(cells_covering(huge.region, TILE_EXTENT_DEGREES)) > MAX_TILES_PER_COVER
        assert cache.get_tiles(huge, cache.raster(huge), now=0.0, generation=1) == (None, [])

    def test_l2_eviction_bounds_tile_count(self):
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0, 0, 0.4, 0.4))
        for i in range(L2_CAPACITY + 2):
            cache.put_tile((i, 0), q, _result(q, []), now=0.0, generation=1)
        assert len(cache._l2) == L2_CAPACITY
        assert cache.stats.l2_evictions == 2
        assert (0, 0) not in {key[0] for key in cache._l2.entries}
        TestWriteDeltaIndex._assert_in_step(cache)

    def test_one_compose_serves_rectangles_and_polygons(self):
        """What the two compose bodies returned, from the one that
        replaced them: a rectangle passes every tile wholesale; a
        polygon passes interior tiles wholesale and crops boundary tiles
        per sensor, and gives up on a boundary tile it cannot crop."""
        e = TILE_EXTENT_DEGREES
        cache = TieredResultCache(_config(), SLOT)
        box = Rect(0.0, 0.0, 3 * e, 3 * e)
        triangle = Polygon([GeoPoint(0.0, 0.0), GeoPoint(3 * e, 0.0), GeoPoint(0.0, 3 * e)])
        rect_q, poly_q = _query(box), _query(triangle)
        rect_raster = cache.raster(rect_q)
        poly_raster = cache.raster(poly_q)
        assert all(interior for _, interior in rect_raster)
        assert dict(poly_raster)[(0, 0)] and not dict(poly_raster)[(1, 1)]
        assert (2, 2) not in dict(poly_raster)  # in the box cover only
        # Two sensors per tile, ids 10*ix+iy+{0, 100}: one near the
        # tile's lower-left corner, one near its upper-right.  Every
        # fill's view places its sensors through the one location table.
        locations: dict[int, GeoPoint] = {}
        sketch = AggregateSketch.of([(5.0, 0.0)])
        for (ix, iy), _ in rect_raster:
            low, high = 10 * ix + iy, 10 * ix + iy + 100
            locations[low] = GeoPoint((ix + 0.1) * e, (iy + 0.1) * e)
            locations[high] = GeoPoint((ix + 0.9) * e, (iy + 0.9) * e)
            answer = QueryAnswer(probed_readings=[_reading(low), _reading(high)])
            if (ix, iy) == (0, 0):
                answer.cached_sketches.append(sketch)
                answer.cached_sketch_nodes.append(7)
            tile_q = _query(cell_rect((ix, iy), e))
            centers = (cell_rect((ix, iy), e).center,) * len(answer.cached_sketches)
            view = GroupView([(answer, (locations,), centers)])
            result = PortalResult(tile_q, view, [answer], 0.0, 0.0)
            cache.put_tile((ix, iy), rect_q, result, now=0.0, generation=1)

        def composed_ids(q, raster):
            composed, missing = cache.get_tiles(q, raster, now=0.0, generation=1)
            assert missing == [] and composed is not None
            (answer,) = composed.result.answers
            assert answer.cached_sketches == [sketch]
            assert answer.cached_sketch_nodes == [7]
            assert composed.tiles == len(raster)
            ids = [r.sensor_id for r in answer.cached_readings]
            placed = [g.center for g in composed.result.groups if g.readings]
            assert placed == [locations[sid] for sid in ids]
            return ids

        assert sorted(composed_ids(rect_q, rect_raster)) == sorted(locations)
        expected = [
            sid
            for (ix, iy), interior in poly_raster
            for sid in (10 * ix + iy, 10 * ix + iy + 100)
            if interior or triangle.contains_point(locations[sid])
        ]
        assert 11 in expected and 111 not in expected  # (1, 1) was cropped
        assert composed_ids(poly_q, poly_raster) == expected
        # A sketch in a boundary tile is anonymous: it cannot be cropped.
        spoiled = QueryAnswer(cached_sketches=[sketch], cached_sketch_nodes=[9])
        cache.put_tile(
            (1, 1), rect_q,
            PortalResult(_query(cell_rect((1, 1), e)), [], [spoiled], 0.0, 0.0),
            now=0.0, generation=1,
        )
        assert cache.get_tiles(poly_q, poly_raster, now=0.0, generation=1) == (None, [])
        composed, _ = cache.get_tiles(rect_q, rect_raster, now=0.0, generation=1)
        assert composed.result.answers[0].cached_sketches == [sketch, sketch]


# Half-tile lattice coordinates: every other one sits on a tile edge, as
# computed by ``k * e / 2`` where ``cell_rect`` computes ``ix * e``.
_LATTICE = st.integers(-6, 12)
_SIZE = st.sampled_from([0, 1, 2, 3, 5, 9, 40])  # half-tiles: index levels 0-5


class TestWriteDeltaIndex:
    """The per-tile index over each tier stays in step with the tier's
    entries through stores, replacements and LRU evictions
    (``TestWrittenSensors`` drives the same checks through invalidation
    and expiry)."""

    @staticmethod
    def _assert_in_step(cache: TieredResultCache) -> None:
        for store in (cache._l1, cache._l2):
            indexed = set(store._unbounded)
            for cell, keys in store._buckets.items():
                assert keys, "an emptied bucket is removed"
                for key in keys:
                    assert cell in store._place(store.entries[key])[1]
                indexed |= keys
            assert indexed == set(store.entries)
            placed: dict[int, int] = {}
            for key, entry in store.entries.items():
                place = store._place(entry)
                assert (place is None) == (key in store._unbounded)
                if place is not None:
                    level, cells = place
                    placed[level] = placed.get(level, 0) + 1
                    assert 1 <= len(cells) <= 4
                    assert all(key in store._buckets[cell] for cell in cells)
            assert placed == store._placed

    def test_replacing_a_tile_keeps_its_lru_position(self):
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0, 0, 0.4, 0.4))
        for i in range(L2_CAPACITY):
            cache.put_tile((i, 0), q, _result(q, []), now=0.0, generation=1)
        cache.put_tile((0, 0), q, _result(q, []), now=0.0, generation=1)
        cache.put_tile((L2_CAPACITY, 0), q, _result(q, []), now=0.0, generation=1)
        tiles = [key[0] for key in cache._l2.entries]
        assert tiles == [(i, 0) for i in range(1, L2_CAPACITY + 1)]
        self._assert_in_step(cache)


def _holds(entry, point: GeoPoint) -> bool:
    """The brute-force oracle: the entry's region (a polygon entry's
    cover cells) holds the point, closed."""
    return any(rect.contains_point(point) for rect in entry.cells or (entry.region,))


# A written sensor's location: on the half-tile lattice (every other
# coordinate on a tile edge, so corners too, the rest tile centres),
# either coordinate nudged one ulp off it, or so far out that it has no
# finite tile.
_NUDGE = st.sampled_from([0, 0, 0, 1, -1])
_WRITTEN = st.tuples(
    _LATTICE, _LATTICE, _NUDGE, _NUDGE, st.sampled_from([0] * 9 + [1])
)


class TestWrittenSensors:
    """A write delta is the written sensors: the tiers drop exactly the
    entries whose region holds one of their locations — tiles, quantized
    (tile-aligned) viewports, free viewports, polygon covers and
    unbounded viewports alike, at a dyadic and a non-dyadic tile
    extent."""

    @staticmethod
    def _point(
        extent: float, kx: int, ky: int, nudge_x: int, nudge_y: int, far: int
    ) -> GeoPoint:
        half = extent / 2
        x, y = kx * half, ky * half
        if nudge_x:
            x = math.nextafter(x, nudge_x * math.inf)
        if nudge_y:
            y = math.nextafter(y, nudge_y * math.inf)
        return GeoPoint(1e308 if far else x, y)

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(
                        ["tile", "quantized", "viewport", "polygon", "unbounded", "get"]
                    ),
                    st.tuples(_LATTICE, _LATTICE, _SIZE, _SIZE),
                ),
                st.tuples(st.just("write"), st.lists(_WRITTEN, min_size=1, max_size=8)),
            ),
            min_size=1,
            max_size=50,
        ),
        extent=st.sampled_from([0.5, 0.1]),
    )
    def test_drops_exactly_the_entries_holding_a_written_sensor(self, ops, extent):
        with _tile_constants(extent, l2_capacity=30):
            self._run_script(ops, extent)

    def _run_script(self, ops, extent: float) -> None:
        cache = TieredResultCache(_config(l1_capacity=20), SLOT)
        ids: dict[GeoPoint, int] = {}  # one id per location, as a registry
        now = 0.0
        for kind, args in ops:
            if kind == "write":
                points = [self._point(extent, *w) for w in args]
                sensors = [
                    Sensor(ids.setdefault(p, len(ids)), p, expiry_seconds=600.0)
                    for p in points
                ]
                expected = {
                    id(store): {
                        key
                        for key, entry in store.entries.items()
                        if any(_holds(entry, p) for p in points)
                    }
                    for store in (cache._l1, cache._l2)
                }
                before = {id(s): set(s.entries) for s in (cache._l1, cache._l2)}
                dropped = cache.invalidate_sensors(sensors)
                assert dropped == sum(len(keys) for keys in expected.values())
                for store in (cache._l1, cache._l2):
                    assert set(store.entries) == before[id(store)] - expected[id(store)]
                TestWriteDeltaIndex._assert_in_step(cache)
                continue
            ix, iy, w, h = args
            if kind == "tile":
                q = _query(cell_rect((ix, iy), extent))
                cache.put_tile((ix, iy), q, _result(q, []), now=now, generation=1)
            elif kind == "quantized":
                # The tile union ``FrontDoor.quantize`` builds, by the
                # same expressions, stored with its raster as the front
                # door stores it: tile-aligned.
                rect = Rect(ix * extent, iy * extent, (ix + w + 1) * extent, (iy + h + 1) * extent)
                q = _query(rect, sensor_type=str(w))
                raster = cache.raster(q)
                cache.put_viewport(q, _result(q, []), now=now, generation=1, raster=raster)
            elif kind == "viewport":
                # A free rectangle on the half-tile lattice (a sampled or
                # oversized viewport): not tile-aligned.
                half = extent / 2
                rect = Rect(ix * half, iy * half, (ix + w) * half, (iy + h) * half)
                q = _query(rect, sensor_type=str(w))
                cache.put_viewport(q, _result(q, []), now=now, generation=1)
            elif kind == "polygon":
                half = extent / 2
                q = _query(
                    Polygon(
                        [
                            GeoPoint(ix * half, iy * half),
                            GeoPoint((ix + w + 1) * half, iy * half),
                            GeoPoint(ix * half, (iy + h + 1) * half),
                        ]
                    )
                )
                cache.put_viewport(q, _result(q, []), now=now, generation=1)
            elif kind == "unbounded":
                q = _query(Rect(ix * extent, -math.inf, math.inf, iy * extent))
                cache.put_viewport(q, _result(q, []), now=now, generation=1)
            else:
                now += SLOT * (w % 2)  # a slot window later: lookups expire
                tiled = _query(cell_rect((ix, iy), extent))
                cache.get_tiles(tiled, cache.raster(tiled), now, 1)
            TestWriteDeltaIndex._assert_in_step(cache)

    def test_a_sensor_on_a_shared_corner_drops_all_four_tiles(self):
        cache = TieredResultCache(_config(), SLOT)
        for tile in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)]:
            q = _query(cell_rect(tile, TILE_EXTENT_DEGREES))
            cache.put_tile(tile, q, _result(q, []), now=0.0, generation=1)
        corner = cell_rect((3, 3), TILE_EXTENT_DEGREES)
        assert cache.invalidate_sensors([_sensor(0, corner.min_x, corner.min_y)]) == 4
        assert [key[0] for key in cache._l2.entries] == [(4, 4)]

    def test_a_write_beside_a_viewport_leaves_it_alone(self):
        """Inside its tile's neighbour, not inside the viewport: the old
        leaf-box delta dropped this entry whenever the writing leaf
        straddled the edge."""
        cache = TieredResultCache(_config(), SLOT)
        q = _query(Rect(0.0, 0.0, 1.0, 1.0))
        cache.put_viewport(q, _result(q, []), now=0.0, generation=1, raster=cache.raster(q))
        assert cache._l1.entries[cache.l1_key(q)].tiles is not None
        beside = [_sensor(0, 1.01, 0.5), _sensor(1, -0.2, 2.0)]
        assert cache.invalidate_sensors(beside) == 0
        assert cache.invalidate_sensors([_sensor(2, 1.0, 0.5)]) == 1


def _sensor(sensor_id: int, x: float, y: float) -> Sensor:
    return Sensor(sensor_id, GeoPoint(x, y), expiry_seconds=600.0)


def test_rejects_nonpositive_slot_seconds():
    with pytest.raises(ValueError):
        TieredResultCache(_config(), 0.0)
