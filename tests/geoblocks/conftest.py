"""Shared builders for the geoblocks suite.

Small reliable fleets (availability 1.0, deterministic value function)
behind uncapped portals with a 1-degree geoblock grid over a 10x10
extent, so twin same-seed portals produce identical reading content at
the same simulated instant — which lets the executor tests compare the
cell-plan path against the exact Region path value-for-value.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.config import COLRTreeConfig
from repro.geoblocks import GeoBlockConfig
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal
from repro.portal.query import SensorQuery

EXTENT = 10.0
STALENESS = 120.0
CELL_DEGREES = 1.0

# Pristine built portals keyed by every make_portal argument.  The
# suite builds the same handful of 300-sensor fleets dozens of times;
# a freshly-built portal is pure deterministic state (no open files,
# no processes), so a deepcopy of the memoized prototype is
# bit-identical to a fresh build — and each test still gets a private
# mutable instance.
_PROTOTYPES: dict[tuple, SensorMapPortal] = {}


def make_portal(
    n: int = 300,
    seed: int = 0,
    cell_degrees: float = CELL_DEGREES,
    max_cells: int = 4096,
    max_sensors_per_query: int | None = None,
    extra_locations: tuple[tuple[float, float], ...] = (),
    cache_capacity: int | None = None,
    caching_enabled: bool = True,
) -> SensorMapPortal:
    """A uniform reliable fleet with a geoblock grid.

    ``extra_locations`` appends sensors at exact coordinates (cell
    corners, edges) for dedup and ownership tests; ``cache_capacity``
    is the trees' global cache-size constraint (Section IV-A) and
    ``caching_enabled=False`` builds them without slot caches.
    """
    key = (
        n, seed, cell_degrees, max_cells, max_sensors_per_query,
        extra_locations, cache_capacity, caching_enabled,
    )
    prototype = _PROTOTYPES.get(key)
    if prototype is None:
        prototype = _build_portal(
            n, seed, cell_degrees, max_cells, max_sensors_per_query,
            extra_locations, cache_capacity, caching_enabled,
        )
        _PROTOTYPES[key] = prototype
    return copy.deepcopy(prototype)


def _build_portal(
    n: int,
    seed: int,
    cell_degrees: float,
    max_cells: int,
    max_sensors_per_query: int | None,
    extra_locations: tuple[tuple[float, float], ...],
    cache_capacity: int | None,
    caching_enabled: bool,
) -> SensorMapPortal:
    portal = SensorMapPortal(
        config=COLRTreeConfig(
            max_expiry_seconds=600.0,
            slot_seconds=120.0,
            cache_capacity=cache_capacity,
            caching_enabled=caching_enabled,
        ),
        max_sensors_per_query=max_sensors_per_query,
        geoblocks=GeoBlockConfig(
            cell_degrees=cell_degrees, max_cells_per_query=max_cells
        ),
    )
    rng = np.random.default_rng(seed)
    for _ in range(n):
        portal.register_sensor(
            GeoPoint(float(rng.uniform(0, EXTENT)), float(rng.uniform(0, EXTENT))),
            expiry_seconds=float(rng.uniform(300.0, 900.0)),
            availability=1.0,
        )
    for x, y in extra_locations:
        portal.register_sensor(
            GeoPoint(x, y), expiry_seconds=600.0, availability=1.0
        )
    portal.rebuild_index()
    return portal


def triangle() -> Polygon:
    """A genuine (non-rectangular) polygon spanning several cells."""
    return Polygon([GeoPoint(1.2, 1.2), GeoPoint(8.4, 2.1), GeoPoint(4.3, 8.6)])


def exact_query(region, staleness: float = STALENESS) -> SensorQuery:
    return SensorQuery(region=region, staleness_seconds=staleness)


def rect_as_polygon(rect: Rect) -> Polygon:
    return Polygon(
        [
            GeoPoint(rect.min_x, rect.min_y),
            GeoPoint(rect.max_x, rect.min_y),
            GeoPoint(rect.max_x, rect.max_y),
            GeoPoint(rect.min_x, rect.max_y),
        ]
    )


def sensor_ids(result) -> set[int]:
    return {
        r.sensor_id
        for a in result.answers
        for r in list(a.probed_readings) + list(a.cached_readings)
    }


def values_by_sensor(result) -> dict[int, float]:
    out: dict[int, float] = {}
    for answer in result.answers:
        for reading in list(answer.probed_readings) + list(answer.cached_readings):
            out[reading.sensor_id] = reading.value
    return out


def assert_identical_results(a, b, context: str = "") -> None:
    """Field-for-field bit-identity of two portal results (the
    rectangle-parity contract)."""
    assert len(a.answers) == len(b.answers), context
    for x, y in zip(a.answers, b.answers):
        for field in (
            "probed_readings",
            "cached_readings",
            "cached_sketches",
            "cached_sketch_nodes",
            "terminals",
            "stats",
        ):
            assert getattr(x, field) == getattr(y, field), f"{context}: {field}"
    assert a.groups == b.groups, context
    assert a.processing_seconds == b.processing_seconds, context
    assert a.collection_seconds == b.collection_seconds, context
