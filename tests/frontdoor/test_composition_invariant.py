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
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import COLRTreeConfig
from repro.federation import FederatedPortal, FederationConfig
from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal
from repro.portal.query import SensorQuery

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


def _fresh_in_region(door: FrontDoor, region, staleness: float) -> dict:
    """What the trees hold now, fresh within ``staleness``, for the
    sensors in ``region``."""
    now = door.portal.clock.now()
    out = {}
    for tree in door._local_trees():
        for leaf in set(tree._leaf_of.values()):
            for reading in leaf.leaf_cache.fresh_readings(now, staleness):
                location = tree._sensors[reading.sensor_id].location
                if region.contains_point(location):
                    out[reading.sensor_id] = (reading.value, reading.timestamp)
    return out


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
    expected = _fresh_in_region(door, query.region, query.staleness_seconds)
    assert values_by_sensor(served.result) == expected, served.served_from


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
