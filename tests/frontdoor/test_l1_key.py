"""The L1 probe keys the raw request.

``FrontDoor`` probes its exact-viewport tier with the key of the
quantized query, made from the request's fields and its tile bounds
(``TieredResultCache.l1_key(query, bounds)``), and serves the query its
entry stored; the quantized query is built only past L1.  Held here:

* the probe's key is ``l1_key(door.quantize(q))``, and ``quantize`` is
  the covering-tile-list construction it replaced
  (:func:`reference_quantize`);
* a front door that quantizes first and keys the quantized query
  (:class:`ReferenceDoor`, the path as it was) serves every request of
  any sequence of ``execute`` and ``execute_batch`` calls with an equal
  ``FrontDoorResult`` and equal ``CacheStats``;
* an unbounded viewport is served directly and stored as the unbounded
  L1 entry.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.frontdoor.cache import (
    MAX_TILES_PER_COVER,
    TILE_EXTENT_DEGREES,
    TieredResultCache,
)
from repro.frontdoor.frontdoor import (
    L1_HIT_SECONDS,
    L2_TILE_COMPOSE_SECONDS,
    FrontDoorResult,
)
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cells_covering
from repro.portal.query import SensorQuery

from tests.frontdoor.conftest import EXTENT, make_fed, make_portal

E = TILE_EXTENT_DEGREES
CONFIG = FrontDoorConfig(admission=AdmissionConfig(enabled=False))
INF = math.inf


def reference_quantize(door: FrontDoor, query: SensorQuery) -> SensorQuery:
    """``FrontDoor.quantize`` as it was: list the covering tiles, then
    take the union of their extremes (a rectangle without a finite
    cover — which raised there — is served as drawn)."""
    if not (
        door.cache.tile_eligible(query) and door.portal.max_sensors_per_query is None
    ):
        return query
    if isinstance(query.region, Polygon):
        return query
    region = query.region
    if not all(map(math.isfinite, (region.min_x, region.min_y, region.max_x, region.max_y))):
        return query
    tiles = cells_covering(region, E)
    if not tiles or len(tiles) > MAX_TILES_PER_COVER:
        return query
    xs = [t[0] for t in tiles]
    ys = [t[1] for t in tiles]
    quantized = Rect(min(xs) * E, min(ys) * E, (max(xs) + 1) * E, (max(ys) + 1) * E)
    return replace(query, region=quantized)


class ReferenceDoor(FrontDoor):
    """The lookup as it was: quantize every request first, then probe
    L1 with the quantized query's key and serve that query."""

    def quantize(self, query: SensorQuery) -> SensorQuery:
        return reference_quantize(self, query)

    def _lookup(self, query, now, generation):
        q = self.quantize(query)
        if generation is None:
            return None, (q, None, [])
        entry = self.cache.get_viewport(TieredResultCache.l1_key(q), now, generation)
        if entry is not None:
            return FrontDoorResult(q, "served", "l1", entry.held, L1_HIT_SECONDS), None
        raster = self.cache.raster(q) if self._tile_serveable(q) else None
        composed, missing = self.cache.get_tiles(q, raster, now, generation)
        if composed is None:
            self.cache.stats.misses += 1
            return None, (q, raster, missing)
        self.cache.put_viewport(q, composed.result, now, generation, raster)
        served = FrontDoorResult(
            q,
            "served",
            "l2",
            composed.result,
            L1_HIT_SECONDS + composed.tiles * L2_TILE_COMPOSE_SECONDS,
            tiles_composed=composed.tiles,
        )
        return served, None


def record_probes(door: FrontDoor) -> list:
    """Every key ``door`` probes L1 with, in order."""
    keys: list = []
    probe = door.cache.get_viewport

    def recording(key, now, generation):
        keys.append(key)
        return probe(key, now, generation)

    door.cache.get_viewport = recording
    return keys


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
# Edges on a tile line, or anywhere over (and a little past) the fleet.
edges = st.one_of(
    st.integers(-4, int(EXTENT / E) + 4).map(lambda k: k * E),
    st.floats(-2.0, EXTENT + 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def free_rects(draw) -> Rect:
    """Any rectangle, degenerate ones included."""
    x0, y0 = draw(edges), draw(edges)
    x1 = x0 if draw(st.booleans()) else draw(edges)
    y1 = y0 if draw(st.booleans()) else draw(edges)
    return Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


@st.composite
def cap_rects(draw) -> Rect:
    """A rectangle whose cover is exactly 64 or 65 tiles: its edges on
    tile lines, or inset inside the same tiles."""
    w, h = draw(st.sampled_from([(8, 8), (4, 16), (1, 64), (5, 13), (13, 5), (65, 1)]))
    ix, iy = draw(st.integers(-2, 6)), draw(st.integers(-2, 6))
    inset = draw(st.sampled_from([0.0, 0.1 * E, 0.5 * E]))
    return Rect(ix * E + inset, iy * E + inset, (ix + w) * E - inset, (iy + h) * E - inset)


@st.composite
def unbounded_rects(draw) -> Rect:
    """A rectangle with at least one infinite edge."""
    rect = draw(free_rects())
    bounds = [rect.min_x, rect.min_y, rect.max_x, rect.max_y]
    open_edges = draw(st.sets(st.integers(0, 3), min_size=1))
    for i in open_edges:
        bounds[i] = -INF if i < 2 else INF
    return Rect(*bounds)


@st.composite
def polygons(draw) -> Polygon:
    """A convex hexagon, or a rectangle drawn as a polygon."""
    cx = draw(st.floats(1.0, EXTENT - 1.0))
    cy = draw(st.floats(1.0, EXTENT - 1.0))
    r = draw(st.floats(0.2, 1.5))
    if draw(st.booleans()):
        return Polygon(
            [GeoPoint(cx - r, cy - r), GeoPoint(cx + r, cy - r),
             GeoPoint(cx + r, cy + r), GeoPoint(cx - r, cy + r)]
        )
    return Polygon(
        [
            GeoPoint(cx + r * math.cos(k * math.pi / 3), cy + r * math.sin(k * math.pi / 3))
            for k in range(6)
        ]
    )


regions = st.one_of(free_rects(), cap_rects(), unbounded_rects(), polygons())


@st.composite
def queries(draw) -> SensorQuery:
    """An exact, sampled, zoomed or clustered request."""
    region = draw(regions)
    staleness = draw(st.sampled_from([60.0, 120.0]))
    kind = draw(st.sampled_from(["exact", "exact0", "sampled", "zoom", "cluster"]))
    if kind == "exact":
        return SensorQuery(region, staleness)
    if kind == "exact0":
        return SensorQuery(region, staleness, sample_size=0)
    if kind == "sampled":
        return SensorQuery(region, staleness, sample_size=draw(st.integers(1, 40)))
    if kind == "zoom":
        return SensorQuery(region, staleness, zoom_level=draw(st.integers(0, 2)))
    return SensorQuery(region, staleness, cluster_miles=draw(st.floats(1.0, 20.0)))


# One step of a session: ``execute`` of one request, or ``execute_batch``
# of several, after the clock moves on by the given seconds.
steps = st.tuples(
    st.sampled_from([0.0, 0.0, 30.0, 150.0]),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.booleans(),
)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
# Doors ``quantize`` reads, uncapped and capped (never executed).
_KEY_DOORS = {
    capped: FrontDoor(make_portal(n=60, max_sensors_per_query=20 if capped else None), CONFIG)
    for capped in (False, True)
}


@given(
    query=st.one_of(queries(), regions.map(lambda region: SensorQuery(region, 60.0))),
    capped=st.booleans(),
)
@example(query=SensorQuery(Rect(0.05, 0.05, 3.95, 3.95), 60.0), capped=False)  # 64 tiles
@example(query=SensorQuery(Rect(0.05, 0.05, 2.45, 6.45), 60.0), capped=False)  # 65 tiles
@example(query=SensorQuery(Rect(1.0, 0.2, 1.0, 0.7), 60.0), capped=False)  # on a tile line
@settings(max_examples=200, deadline=None)
def test_quantize_is_the_tile_list_union(query, capped):
    door = _KEY_DOORS[capped]
    quantized = door.quantize(query)
    assert quantized == reference_quantize(door, query)
    assert TieredResultCache.l1_key(quantized) == TieredResultCache.l1_key(
        reference_quantize(door, query)
    )


@given(query=queries(), capped=st.booleans())
@settings(max_examples=60, deadline=None)
def test_probe_key_is_the_quantized_querys(query, capped):
    door = FrontDoor(make_portal(n=60, max_sensors_per_query=20 if capped else None), CONFIG)
    keys = record_probes(door)
    door.execute(query)
    door.execute_batch([query])
    assert keys == [TieredResultCache.l1_key(door.quantize(query))] * 2


@given(
    pool=st.lists(queries(), min_size=1, max_size=4),
    session=st.lists(steps, min_size=1, max_size=6),
    capped=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_serving_matches_the_quantize_first_path(pool, session, capped):
    cap = 40 if capped else None
    door = FrontDoor(make_portal(n=150, max_sensors_per_query=cap), CONFIG)
    reference = ReferenceDoor(make_portal(n=150, max_sensors_per_query=cap), CONFIG)
    # Close the session with the first request twice over: the second
    # is an L1 hit on either path.
    session = session + [(0.0, [0], True), (0.0, [0], True), (0.0, [0, 0], False)]
    for advance, picks, alone in session:
        for d in (door, reference):
            d.portal.clock.advance(advance)
        requests = [pool[i % len(pool)] for i in picks]
        if alone:
            served = [door.execute(requests[0])]
            expected = [reference.execute(requests[0])]
        else:
            served = door.execute_batch(requests).results
            expected = reference.execute_batch(requests).results
        assert served == expected
        assert door.cache.stats == reference.cache.stats
    assert served[0].served_from == "l1"


# ----------------------------------------------------------------------
# An unbounded viewport
# ----------------------------------------------------------------------
def test_unbounded_viewport_is_served_directly_and_cached_unbounded():
    fed = make_fed(n=200, n_shards=2)
    door = FrontDoor(fed, CONFIG)
    query = SensorQuery(Rect(-INF, -INF, INF, INF), 60.0)
    assert door.quantize(query) is query
    assert door.cache.raster(query) == []

    first = door.execute(query)
    assert first.served_from == "portal"
    assert first.query is query
    assert first.result.result_weight == 200
    (key,) = door.cache._l1._unbounded
    assert key == TieredResultCache.l1_key(query)

    again = door.execute(query)
    assert again.served_from == "l1"
    assert again.result is first.result
    assert door.execute_batch([query]).results[0].served_from == "l1"

    # Any write lands inside it: a fresher viewport re-probes its sensors.
    fed.clock.advance(10.0)
    written = door.cache.stats.invalidated_write
    door.execute(SensorQuery(Rect(1.0, 1.0, 2.0, 2.0), 5.0))
    assert not door.cache._l1._unbounded
    assert door.cache.stats.invalidated_write > written


def test_half_open_and_huge_viewports_are_served_as_drawn():
    fed = make_fed(n=200, n_shards=2)
    door = FrontDoor(fed, CONFIG)
    for region in (Rect(2.0, -INF, INF, 3.0), Rect(-1e300, -1e300, 1e300, 1e300)):
        query = SensorQuery(region, 60.0)
        assert door.quantize(query) is query
        assert door.cache.raster(query) == []
        served = door.execute(query)
        assert served.served_from == "portal" and served.query is query
        assert door.execute_batch([query]).results[0].served_from == "l1"
