"""Shared builders for the front-door suite.

Portals here use a *reliable* fleet (availability 1.0, no latency
jitter) with the default deterministic value function, so two portals
built from the same seed produce identical reading content at the same
simulated instant even after their network RNG streams diverge — which
is what lets cache-on vs cache-off content parity be asserted exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import COLRTreeConfig
from repro.federation import FederatedPortal, FederationConfig
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorMapPortal
from repro.portal.query import SensorQuery

EXTENT = 10.0
STALENESS = 120.0
SLOT_SECONDS = 120.0


def make_portal(
    n: int = 300,
    seed: int = 0,
    availability: float = 1.0,
    extent: float = EXTENT,
    max_sensors_per_query: int | None = None,
) -> SensorMapPortal:
    """A small uniform fleet behind an uncapped portal (the tile layer
    needs exact sub-queries to stay exact) unless a cap is given."""
    portal = SensorMapPortal(
        config=COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=SLOT_SECONDS),
        max_sensors_per_query=max_sensors_per_query,
    )
    rng = np.random.default_rng(seed)
    for _ in range(n):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, extent)), float(rng.uniform(0, extent))),
            expiry_seconds=float(rng.uniform(300.0, 900.0)),
            availability=availability,
        )
    portal.rebuild_index()
    return portal


def make_fed(
    n: int = 600,
    seed: int = 0,
    n_shards: int = 3,
    execution: str = "inprocess",
    shard_retry_budget: int = 1,
    availability: float = 1.0,
    extent: float = EXTENT,
) -> FederatedPortal:
    """A reliable sharded fleet; a killed shard takes
    ``shard_retry_budget`` retries before it fails."""
    portal = FederatedPortal(
        n_shards=n_shards,
        config=COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=SLOT_SECONDS),
        max_sensors_per_query=None,
        federation=FederationConfig(
            execution=execution,
            shard_retry_budget=shard_retry_budget,
        ),
    )
    rng = np.random.default_rng(seed)
    for _ in range(n):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, extent)), float(rng.uniform(0, extent))),
            expiry_seconds=float(rng.uniform(300.0, 900.0)),
            availability=availability,
        )
    portal.rebuild_index()
    return portal


def exact_query(region: Rect, staleness: float = STALENESS) -> SensorQuery:
    return SensorQuery(region=region, staleness_seconds=staleness)


# ----------------------------------------------------------------------
# Content-level comparison
# ----------------------------------------------------------------------
def values_by_sensor(result) -> dict[int, tuple[float, float]]:
    """sensor id -> (value, timestamp) over every *enumerated* reading
    (probed or cached) in the answer."""
    out: dict[int, tuple[float, float]] = {}
    for answer in result.answers:
        for reading in list(answer.probed_readings) + list(answer.cached_readings):
            out[reading.sensor_id] = (reading.value, reading.timestamp)
    return out


def aggregates(result) -> tuple[float, float, float, float]:
    """(count, sum, min, max) combined over the whole answer."""
    count = total = 0.0
    lo, hi = math.inf, -math.inf
    for answer in result.answers:
        if answer.result_weight == 0:
            continue
        sketch = answer.combined_sketch()
        count += sketch.count
        total += sketch.total
        lo = min(lo, sketch.minimum)
        hi = max(hi, sketch.maximum)
    return count, total, lo, hi


def groups_by_sensor(result) -> dict[int, tuple]:
    """sensor id -> (center, size, sum) of its one-reading display
    group (ungrouped queries: every enumerated reading has one)."""
    return {
        group.readings[0].sensor_id: (group.center, group.size, group.sketch.total)
        for group in result.groups
        if len(group.readings) == 1
    }


def assert_same_content(a, b, context: str = "") -> None:
    """The user-visible answer is identical, whatever its internal
    shape (tile-composed answers enumerate readings that a direct
    execution may have served as node sketches, so this compares what
    the map renders: the represented-sensor weight, the aggregates, and
    the value and display group of every sensor both sides
    enumerated)."""
    assert a.result_weight == b.result_weight, context
    ca, sa, mina, maxa = aggregates(a)
    cb, sb, minb, maxb = aggregates(b)
    assert ca == cb, context
    assert sa == pytest.approx(sb), context
    assert (mina, maxa) == (minb, maxb), context
    va, vb = values_by_sensor(a), values_by_sensor(b)
    for sensor_id in va.keys() & vb.keys():
        assert va[sensor_id] == vb[sensor_id], context
    for result in (a, b):
        assert sum(g.size for g in result.groups) == result.result_weight, context
    ga, gb = groups_by_sensor(a), groups_by_sensor(b)
    assert ga.keys() == va.keys() and gb.keys() == vb.keys(), context
    for sensor_id in ga.keys() & gb.keys():
        assert ga[sensor_id] == gb[sensor_id], context
