"""The front door serves exactly what the trees hold.

Over a reliable in-process fleet — a portal and a two-shard federation
— random exact rectangle and polygon viewports go through the front
door (one by one and in batches) between clock advances and direct
portal queries that re-probe behind its back.  After every call, each
served answer's ``sensor_id -> (value, timestamp)`` map must equal the
readings the trees hold right now, fresh within the query's staleness
bound, for the sensors in the answer's region.  Aggregate caching is
off, so an exact answer enumerates every reading it stands for.

This is the cache's whole contract in one assertion: a cached answer
never outlives a write to a sensor in its region (write deltas), a
slot turn or its staleness bound — and invalidating by written sensor
rather than by written region loses none of that.

A tile that holds no indexed sensor is composed empty, never filled, so
the same assertion runs over a city-clustered fleet — mostly empty
tiles, a share of its sensors on tile lines and corners — while the
fleet changes under the cache: sensors join and leave, rebalance steps
move them, a shard is killed and revived.  A partial answer (a killed
shard did not answer) holds the readings of the shards that did.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import COLRTreeConfig
from repro.federation import FederatedPortal, FederationConfig
from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import TILE_EXTENT_DEGREES
from repro.portal import SensorMapPortal
from repro.portal.query import SensorQuery
from repro.rebalance import (
    JoinSpec,
    MigrationAborted,
    RebalanceConfig,
    Rebalancer,
    ShardMover,
)

from tests.frontdoor.conftest import EXTENT, SLOT_SECONDS, STALENESS, values_by_sensor

CONFIG = COLRTreeConfig(
    max_expiry_seconds=600.0,
    slot_seconds=SLOT_SECONDS,
    aggregate_caching_enabled=False,
)


def _fleet(portal, n: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, EXTENT)), float(rng.uniform(0, EXTENT))),
            expiry_seconds=float(rng.uniform(300.0, 900.0)),
            availability=1.0,
        )
    portal.rebuild_index()
    return portal


def _portal(federated: bool, seed: int):
    if federated:
        portal = FederatedPortal(
            n_shards=2,
            config=CONFIG,
            max_sensors_per_query=None,
            federation=FederationConfig(execution="inprocess"),
        )
    else:
        portal = SensorMapPortal(config=CONFIG, max_sensors_per_query=None)
    return _fleet(portal, 300, seed)


def _trees(door: FrontDoor, failed: tuple = ()) -> list:
    """The trees of every shard but the ``failed`` ones."""
    if not failed:
        return door._local_trees()
    return [
        tree
        for i, shard in enumerate(door.portal.shards())
        if i not in failed
        for tree in shard._trees.values()
    ]


def _fresh_in_region(
    door: FrontDoor, region, staleness: float, failed: tuple = ()
) -> dict:
    """What the trees hold now, fresh within ``staleness``, for the
    sensors in ``region`` — on every shard but the ``failed`` ones."""
    now = door.portal.clock.now()
    out = {}
    for tree in _trees(door, failed):
        for leaf in set(tree._leaf_of.values()):
            for reading in leaf.leaf_cache.fresh_readings(now, staleness):
                location = tree._sensors[reading.sensor_id].location
                if region.contains_point(location):
                    out[reading.sensor_id] = (reading.value, reading.timestamp)
    return out


def _indexed_in_region(door: FrontDoor, region, failed: tuple = ()) -> set[int]:
    """The indexed sensors in ``region`` on every shard but the
    ``failed`` ones: on a reliable fleet an exact answer reads each."""
    return {
        sensor_id
        for tree in _trees(door, failed)
        for sensor_id, sensor in tree._sensors.items()
        if region.contains_point(sensor.location)
    }


_X = st.floats(0.0, EXTENT - 1.0)
_SIZE = st.floats(0.2, 4.0)
_VIEWPORT = st.one_of(
    st.tuples(st.just("rect"), _X, _X, _SIZE, _SIZE),
    st.tuples(st.just("polygon"), _X, _X, _SIZE, _SIZE),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("door"), _VIEWPORT),
        st.tuples(st.just("batch"), st.lists(_VIEWPORT, min_size=1, max_size=4)),
        st.tuples(st.just("advance"), st.floats(0.0, 70.0)),
        st.tuples(st.just("direct"), _VIEWPORT, st.sampled_from([0.0, 20.0])),
    ),
    min_size=1,
    max_size=14,
)


def _query(viewport, staleness: float = STALENESS) -> SensorQuery:
    kind, x, y, w, h = viewport
    if kind == "rect":
        region = Rect(x, y, x + w, y + h)
    else:  # a triangle with a tile-crossing hypotenuse
        region = Polygon([GeoPoint(x, y), GeoPoint(x + w, y), GeoPoint(x, y + h)])
    return SensorQuery(region=region, staleness_seconds=staleness)


def _check(door: FrontDoor, served) -> None:
    assert served.served
    query = served.query
    failed = getattr(served.result, "failed_shards", ())
    expected = _fresh_in_region(door, query.region, query.staleness_seconds, failed)
    assert values_by_sensor(served.result) == expected, served.served_from
    assert expected.keys() == _indexed_in_region(door, query.region, failed)


@settings(max_examples=25, deadline=None)
@given(ops=_OPS, federated=st.booleans(), seed=st.integers(0, 3))
def test_every_served_answer_is_the_trees_fresh_readings(ops, federated, seed):
    portal = _portal(federated, seed)
    door = FrontDoor(portal, FrontDoorConfig(admission=AdmissionConfig(enabled=False)))
    for kind, arg, *rest in ops:
        if kind == "door":
            _check(door, door.execute(_query(arg)))
        elif kind == "batch":
            for served in door.execute_batch([_query(v) for v in arg]).results:
                _check(door, served)
        elif kind == "advance":
            portal.clock.advance(arg)
        else:
            # Behind the front door's back: a tighter staleness bound
            # re-probes sensors whose readings the cache may hold.
            portal.execute(_query(arg, staleness=rest[0]))


def test_a_direct_write_under_a_cached_viewport_is_seen():
    """The deterministic core of the property: a cached viewport, a
    portal query that re-probes inside it, and the next front-door
    answer carries the new readings."""
    portal = _portal(False, 0)
    door = FrontDoor(portal, FrontDoorConfig(admission=AdmissionConfig(enabled=False)))
    viewport = ("rect", 2.0, 2.0, 3.0, 3.0)
    _check(door, door.execute(_query(viewport)))
    portal.clock.advance(30.0)
    assert door.execute(_query(viewport)).cache_hit
    portal.execute(_query(("rect", 3.0, 3.0, 1.0, 1.0), staleness=0.0))
    served = door.execute(_query(viewport))
    assert not served.cache_hit
    _check(door, served)


# ----------------------------------------------------------------------
# A sparse fleet that changes under the cache
# ----------------------------------------------------------------------
E = TILE_EXTENT_DEGREES
CITIES = ((2.0, 2.5), (7.25, 6.0), (3.0, 8.0))


def _city_point(rng: np.random.Generator, anywhere: bool = False) -> GeoPoint:
    """Near one of three cities (or ``anywhere`` over the fleet, where
    most tiles are empty); a third of the time snapped onto a tile line,
    a sixth of the time onto a tile corner."""
    cx, cy = CITIES[int(rng.integers(len(CITIES)))]
    x = float(np.clip(rng.normal(cx, 0.5), 0.0, EXTENT))
    y = float(np.clip(rng.normal(cy, 0.5), 0.0, EXTENT))
    if anywhere:
        x, y = (float(v) for v in rng.uniform(0.0, EXTENT, 2))
    snap = int(rng.integers(6))
    if snap < 2:
        x = round(x / E) * E
    if snap == 0:
        y = round(y / E) * E
    return GeoPoint(x, y)


def _sparse_portal(federated: bool, seed: int):
    if federated:
        portal = FederatedPortal(
            n_shards=2,
            config=CONFIG,
            max_sensors_per_query=None,
            federation=FederationConfig(execution="inprocess", shard_retry_budget=0),
        )
    else:
        portal = SensorMapPortal(config=CONFIG, max_sensors_per_query=None)
    rng = np.random.default_rng(seed)
    for _ in range(150):
        portal.register_sensor(
            _city_point(rng),
            expiry_seconds=float(rng.uniform(300.0, 900.0)),
            availability=1.0,
        )
    portal.rebuild_index()
    return portal


# A change to the fleet, the clock or a shard's health, then reads.
_CHURN_STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("advance"), st.floats(0.0, 70.0)),
            st.tuples(st.just("join"), st.integers(1, 4), st.integers(0, 2**16)),
            st.tuples(st.just("leave"), st.integers(1, 4), st.integers(0, 2**16)),
            st.tuples(st.just("rebalance")),
            st.tuples(st.just("kill")),
            st.tuples(st.just("revive")),
        ),
        st.booleans(),
        st.lists(_VIEWPORT, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=8,
)


def _change_fleet(portal, op) -> list:
    """One membership or health change; returns viewports around the
    sensors it added.  The portal has no live membership: a join
    registers (the next call rebuilds), and the federation-only changes
    do nothing to it."""
    kind = op[0]
    federated = isinstance(portal, FederatedPortal)
    if kind == "join":
        rng = np.random.default_rng(op[2])
        points = [_city_point(rng, anywhere=i % 2 == 0) for i in range(op[1])]
        if federated:
            ShardMover(portal).absorb_joins([JoinSpec(p, 600.0) for p in points])
        else:
            for point in points:
                portal.register_sensor(point, expiry_seconds=600.0, availability=1.0)
        return [("rect", p.x - 0.3, p.y - 0.3, 0.6, 0.6) for p in points]
    if not federated:
        return []
    if kind == "leave":
        ids = sorted(s.sensor_id for s in portal.registry)
        rng = np.random.default_rng(op[2])
        leaving = rng.choice(ids, size=min(op[1], len(ids) - 1), replace=False)
        ShardMover(portal).absorb_leaves([int(i) for i in leaving])
    elif kind == "rebalance":
        Rebalancer(portal, RebalanceConfig(imbalance_tolerance=0.0)).step()
    elif kind == "kill":
        if not portal.shard_killed(0):
            portal.kill_shard(0)
    elif kind == "revive":
        if portal.shard_killed(0):
            portal.revive_shard(0)
    return []


@settings(max_examples=30, deadline=None)
@given(steps=_CHURN_STEPS, federated=st.booleans(), seed=st.integers(0, 3))
# A join refused by the killed shard, then a leave drawn from the registry.
@example(
    steps=[
        (("kill",), True, [("rect", 7.7, 1e-05, 0.87, 2.00001)]),
        (("join", 1, 1), False, [("polygon", 0.001, 3.28, 2.77, 1.87)]),
        (("leave", 3, 1944), False, [("polygon", 5.72, 1.82, 1.51, 3.3)]),
    ],
    federated=True,
    seed=0,
)
def test_a_sparse_changing_fleet_is_served_its_fresh_readings(steps, federated, seed):
    portal = _sparse_portal(federated, seed)
    door = FrontDoor(portal, FrontDoorConfig(admission=AdmissionConfig(enabled=False)))
    for change, batched, viewports in steps:
        if change[0] == "advance":
            portal.clock.advance(change[1])
        else:
            try:
                viewports = _change_fleet(portal, change) + viewports
            except MigrationAborted:
                pass  # a killed shard refuses the step; nothing moved
        queries = [_query(v) for v in viewports]
        if batched:
            served = door.execute_batch(queries).results
        else:
            served = [door.execute(q) for q in queries]
        for one in served:
            _check(door, one)


def _counting(portal) -> list:
    """Every query the portal is asked from outside, in order (a lone
    ``execute`` that runs as a batch of one counts once)."""
    calls: list = []
    depth = [0]

    def counted(method, queries_of):
        def call(arg):
            if not depth[0]:
                calls.extend(queries_of(arg))
            depth[0] += 1
            try:
                return method(arg)
            finally:
                depth[0] -= 1

        return call

    portal.execute = counted(portal.execute, lambda q: [q])
    portal.execute_batch = counted(portal.execute_batch, list)
    return calls


@pytest.mark.parametrize("federated", [False, True])
def test_empty_tiles_cost_no_portal_call_and_an_edge_sensor_is_filled(federated):
    if federated:
        portal = FederatedPortal(
            n_shards=2, config=CONFIG, max_sensors_per_query=None
        )
    else:
        portal = SensorMapPortal(config=CONFIG, max_sensors_per_query=None)
    rng = np.random.default_rng(1)
    for _ in range(60):  # a city in tiles 0..3
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0.1, 1.9)), float(rng.uniform(0.1, 1.9))),
            expiry_seconds=600.0,
        )
    # Alone on the line x = 5.0, between tile columns 9 and 10.
    edge = portal.register_sensor(GeoPoint(5.0, 6.25), expiry_seconds=600.0)
    portal.rebuild_index()
    door = FrontDoor(portal, FrontDoorConfig(admission=AdmissionConfig(enabled=False)))
    calls = _counting(portal)
    stats = door.cache.stats

    # Nine tiles, none holding a sensor: composed, not filled.
    empty = door.execute(_query(("rect", 7.1, 7.1, 1.2, 1.2)))
    assert empty.served_from == "l2" and empty.tiles_composed == 9
    assert empty.result.result_weight == 0
    assert calls == [] and stats.tile_stores == 0 and stats.empty_tiles == 9

    # Tile (9, 12) holds only the sensor on its right edge: it is
    # filled, and the sensor is in the answer.
    served = door.execute(_query(("rect", 4.6, 6.1, 0.3, 0.3)))
    assert served.served_from == "portal" and served.tiles_composed == 1
    assert [q.region for q in calls] == [Rect(4.5, 6.0, 5.0, 6.5)]
    assert set(values_by_sensor(served.result)) == {edge.sensor_id}
    assert stats.tile_stores == 1 and stats.empty_tiles == 9
    _check(door, served)
