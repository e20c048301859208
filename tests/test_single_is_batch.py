"""A lone query is a batch of one, and a polygon is a query, at every
layer.

``execute(q)`` on the portal, the federation coordinator and the front
door serves ``q`` through the same path ``execute_batch([q])`` does, so
the two agree on everything a result carries — and so does
``execute_polygon(q)``, an alias.  Each ``TestDivergence`` case is a
place where they used to disagree: shard retries, the gather deadline on
a sampled query, and a polygon miss at the front door.
``TestOnePolygonPath`` holds every other entry point a polygon can reach
to the geoblock cell plan the executor decides on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import FederatedPortal, FederationConfig
from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.geoblocks.executor import PolygonResult
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import ContinuousQueryManager, SensorMapPortal, SensorQuery, parse_query
from repro.transport import TransportConfig

NETWORK = {"latency_jitter": 0.3, "timeout_seconds": 0.45}


def _fleet(portal, n=400, extent=100.0, types=("temperature", "wind")):
    rng = np.random.default_rng(11)
    for i, (x, y) in enumerate(rng.random((n, 2)) * extent):
        portal.register_sensor(
            GeoPoint(float(x), float(y)),
            expiry_seconds=300.0,
            sensor_type=types[i % len(types)],
            availability=0.5 if i % 7 == 0 else 0.95,
        )
    portal.rebuild_index()
    return portal


def _portal(**kwargs):
    kwargs.setdefault("max_sensors_per_query", None)
    return _fleet(SensorMapPortal(network_options=dict(NETWORK), **kwargs))


def _federation(federation=None, **kwargs):
    kwargs.setdefault("max_sensors_per_query", None)
    return _fleet(
        FederatedPortal(
            n_shards=4,
            network_options=dict(NETWORK),
            federation=federation,
            **kwargs,
        )
    )


def _readings(result):
    return [
        (r.sensor_id, r.value)
        for a in result.answers
        for r in list(a.probed_readings) + list(a.cached_readings)
    ]


def _same(a, b):
    """Two results carry the same answer, stats and accounting."""
    assert type(a) is type(b)
    assert len(a.answers) == len(b.answers)
    for x, y in zip(a.answers, b.answers):
        assert x.probed_readings == y.probed_readings
        assert x.cached_readings == y.cached_readings
        assert x.cached_sketches == y.cached_sketches
        assert x.stats == y.stats
    assert list(a.groups) == list(b.groups)
    assert a.processing_seconds == b.processing_seconds
    assert a.collection_seconds == b.collection_seconds
    assert a.sample_requested == b.sample_requested
    for name in (
        "failed_shards",
        "shard_retries",
        "redistribution_rounds_run",
        "topup_sensors_gained",
        "sampled_shortfall",
    ):
        assert getattr(a, name, None) == getattr(b, name, None), name


HEXAGON = Polygon(
    GeoPoint(50.0 + 18.0 * math.cos(a), 50.0 + 18.0 * math.sin(a))
    for a in (k * math.pi / 3 for k in range(6))
)
HEXAGON_QUERY = SensorQuery(region=HEXAGON, staleness_seconds=120.0)

VIEWPORTS = [
    SensorQuery(region=Rect(10.0, 10.0, 60.0, 55.0), staleness_seconds=120.0),
    SensorQuery(
        region=Rect(30.0, 20.0, 90.0, 80.0), staleness_seconds=120.0, sample_size=25
    ),
    SensorQuery(
        region=Rect(0.0, 40.0, 45.0, 100.0),
        staleness_seconds=120.0,
        sensor_type="wind",
    ),
    HEXAGON_QUERY,
]
QUERIES = st.sampled_from(VIEWPORTS)


class TestExecuteIsABatchOfOne:
    """Triplet stacks: one asked ``execute(q)``, one
    ``execute_polygon(q)``, the third ``execute_batch([q])``, tick after
    tick."""

    @settings(max_examples=10, deadline=None)
    @given(queries=st.lists(QUERIES, min_size=1, max_size=4), configured=st.booleans())
    def test_portal(self, queries, configured):
        transport = TransportConfig() if configured else None
        single, alias, batch = (_portal(transport=transport) for _ in range(3))
        for query in queries:
            one = single.execute(query)
            _same(one, alias.execute_polygon(query))
            _same(one, batch.execute_batch([query]).results[0])
            for portal in (single, alias, batch):
                portal.clock.advance(40.0)
        assert single.network.stats == alias.network.stats == batch.network.stats

    @settings(max_examples=10, deadline=None)
    @given(queries=st.lists(QUERIES, min_size=1, max_size=4), configured=st.booleans())
    def test_federation(self, queries, configured):
        transport = TransportConfig() if configured else None
        single, alias, batch = (_federation(transport=transport) for _ in range(3))
        for query in queries:
            one = single.execute(query)
            _same(one, alias.execute_polygon(query))
            _same(one, batch.execute_batch([query]).results[0])
            for fed in (single, alias, batch):
                fed.clock.advance(40.0)
        for a, b, c in zip(single.shards(), alias.shards(), batch.shards()):
            assert a.network.stats == b.network.stats == c.network.stats

    def test_federated_polygon_on_the_process_backend(self):
        """The process backend sends a polygon as an ordinary
        ``execute_batch`` sub-query, and its shards plan it."""
        config = FederationConfig(execution="process")
        stacks = [_federation(config) for _ in range(3)]
        try:
            single, alias, batch = stacks
            one = single.execute(HEXAGON_QUERY)
            _same(one, alias.execute_polygon(HEXAGON_QUERY))
            _same(one, batch.execute_batch([HEXAGON_QUERY]).results[0])
            assert len(one.shard_results) > 1
            for result in one.shard_results.values():
                assert isinstance(result, PolygonResult)
        finally:
            for fed in stacks:
                fed.close()

    @pytest.mark.parametrize("l2_enabled", [True, False], ids=["l2", "no-l2"])
    def test_front_door(self, l2_enabled):
        config = FrontDoorConfig(
            l2_enabled=l2_enabled, admission=AdmissionConfig(enabled=False)
        )
        single = FrontDoor(_federation(), config)
        batch = FrontDoor(_federation(), config)
        for query in VIEWPORTS * 2:
            one = single.execute(query)
            (other,) = batch.execute_batch([query]).results
            assert (one.served_from, one.tiles_composed) == (
                other.served_from,
                other.tiles_composed,
            )
            assert one.service_seconds == other.service_seconds
            _same(one.result, other.result)
        assert single.cache.stats == batch.cache.stats


class TestDivergence:
    def test_shard_retries_count_on_the_batch_path(self):
        """A killed shard under ``shard_retry_budget=2``: each lone
        query's ``shard_retries`` is the retries of the shards it routed
        to, through either entry point."""
        config = FederationConfig(shard_retry_budget=2)
        single, batch = _federation(config), _federation(config)
        for fed in (single, batch):
            fed.kill_shard(1)
        wide = SensorQuery(region=Rect(0.0, 0.0, 100.0, 100.0), staleness_seconds=120.0)
        one = single.execute(wide)
        (other,) = batch.execute_batch([wide]).results
        assert one.failed_shards == other.failed_shards == (1,)
        assert one.shard_retries == other.shard_retries == 2
        # A query that does not route to the dead shard took no retries
        # of its own, though it shares the tick with one that did.
        corner = SensorQuery(region=Rect(0.0, 0.0, 10.0, 10.0), staleness_seconds=120.0)
        tick = _federation(config)
        tick.kill_shard(1)
        with_wide, with_corner = tick.execute_batch([wide, corner]).results
        assert with_wide.shard_retries == 2
        assert 1 not in {r.shard_id for r in tick.directory.route(corner.region)}
        assert with_corner.shard_retries == 0

    def test_a_polygon_miss_takes_the_geoblock_path_on_the_batch_path(self):
        """With L2 off an exact hexagon is a direct miss; both entry
        points serve it through the portal's geoblock planner."""
        config = FrontDoorConfig(
            l2_enabled=False, admission=AdmissionConfig(enabled=False)
        )
        hexagon = SensorQuery(region=HEXAGON, staleness_seconds=120.0)
        one = FrontDoor(_portal(), config).execute(hexagon)
        (other,) = FrontDoor(_portal(), config).execute_batch([hexagon]).results
        assert isinstance(one.result, PolygonResult)
        assert isinstance(other.result, PolygonResult)
        assert _readings(one.result) == _readings(other.result)
        assert other.result.interior_cells + other.result.boundary_cells > 0


class TestOnePolygonPath:
    """A genuine exact polygon reaches the geoblock cell plan from every
    entry point, not only from the one named after it."""

    def test_execute_sql(self):
        ring = ", ".join(f"({v.y!r}, {v.x!r})" for v in HEXAGON.vertices)
        sql = (
            f"SELECT count(*) FROM sensor S WHERE S.location WITHIN Polygon({ring}) "
            "AND S.time BETWEEN now()-2 AND now() mins"
        )
        result = _portal().execute_sql(sql)
        assert isinstance(result, PolygonResult)
        _same(result, _portal().execute_polygon(parse_query(sql)))

    def test_continuous_subscription(self):
        portal = _portal()
        manager = ContinuousQueryManager(portal)
        subscription = manager.subscribe(HEXAGON_QUERY, refresh_seconds=45.0)
        manager.tick()
        assert isinstance(subscription.last_result, PolygonResult)
        _same(subscription.last_result, _portal().execute_polygon(HEXAGON_QUERY))

    def test_execute_streaming(self):
        final = _federation().execute_streaming(HEXAGON_QUERY).final
        assert len(final.shard_results) > 1
        for result in final.shard_results.values():
            assert isinstance(result, PolygonResult)
        _same(final, _federation().execute_polygon(HEXAGON_QUERY))

    def test_front_door_sends_polygon_and_rectangle_misses_in_one_batch(self):
        """Two direct misses, one a polygon: one ``execute_batch`` call
        per routed shard, and no other shard op."""
        fed = _federation()
        door = FrontDoor(
            fed,
            FrontDoorConfig(l2_enabled=False, admission=AdmissionConfig(enabled=False)),
        )
        sent: list[tuple[int, str]] = []
        attempt = fed._backend.attempt

        def counting(calls):
            sent.extend((shard_id, op) for shard_id, op, _ in calls)
            return attempt(calls)

        fed._backend.attempt = counting
        rectangle = VIEWPORTS[0]
        served = door.execute_batch([HEXAGON_QUERY, rectangle]).results
        assert [r.served_from for r in served] == ["portal", "portal"]
        routed = {
            route.shard_id
            for query in (HEXAGON_QUERY, rectangle)
            for route in fed.directory.route(query.region)
        }
        assert sorted(sent) == [(shard_id, "execute_batch") for shard_id in sorted(routed)]
        for result in served[0].result.shard_results.values():
            assert isinstance(result, PolygonResult)


class TestSampledQueriesBillTheTick:
    def test_a_sampled_singleton_books_its_probes_and_collection(self):
        portal = _portal(transport=TransportConfig())
        sampled = SensorQuery(
            region=Rect(10.0, 10.0, 90.0, 90.0),
            staleness_seconds=120.0,
            sample_size=40,
        )
        batch = portal.execute_batch([sampled])
        (result,) = batch.results
        probed = sum(a.stats.sensors_probed for a in result.answers)
        assert probed > 0
        assert batch.stats.collection_seconds == result.collection_seconds > 0.0
