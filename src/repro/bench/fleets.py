"""The synthetic fleet and the hotspot viewport pool the subsystem
benches share.

Both are seeded and draw in a fixed order (all x, all y, all expiries,
then whatever the availability rule draws), so every bench that names
the same ``(n, seed)`` sees the same sensors, and the deterministic
leaves of its artifact stay equal run to run.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.geometry import GeoPoint, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.sensors.sensor import Sensor

EXTENT = 100.0
STALENESS = 120.0
TICK_SECONDS = 45.0

# The mixed fleet of the transport / federation / parallel benches: four
# sensor types (one probe round per tree per tick), 70% reliable sensors
# and 30% flaky ones behind a jittered network with a probe timeout.
SENSOR_TYPES = ("temperature", "humidity", "wind", "rain")
RELIABLE_AVAILABILITY = 0.95
FLAKY_AVAILABILITY = 0.35
FLAKY_FRACTION = 0.3
NETWORK_OPTIONS = {"latency_jitter": 0.3, "timeout_seconds": 0.45}

AvailabilityRule = Callable[[np.random.Generator, np.ndarray], np.ndarray]


def flaky_mix(
    fraction: float = FLAKY_FRACTION, reliable: float = RELIABLE_AVAILABILITY
) -> AvailabilityRule:
    """An availability rule: a random ``fraction`` of the fleet is flaky,
    the rest answers with probability ``reliable``."""
    return lambda rng, xs: np.where(
        rng.random(len(xs)) < fraction, FLAKY_AVAILABILITY, reliable
    )


def uniform_fleet(
    n: int,
    seed: int,
    expiry: tuple[float, float] = (120.0, 600.0),
    types: Sequence[str] = ("generic",),
    availability: float | AvailabilityRule = 1.0,
) -> list[Sensor]:
    """``n`` sensors uniform over the extent with ids ``0..n-1``, expiry
    uniform in ``expiry``, types assigned round-robin, and availability
    either one value or a rule ``(rng, xs) -> per-sensor array`` applied
    after the three coordinate columns are drawn."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, EXTENT, n)
    ys = rng.uniform(0.0, EXTENT, n)
    expiries = rng.uniform(*expiry, n)
    if callable(availability):
        available = availability(rng, xs)
    else:
        available = np.full(n, availability)
    return [
        Sensor(
            sensor_id=i,
            location=GeoPoint(float(xs[i]), float(ys[i])),
            expiry_seconds=float(expiries[i]),
            sensor_type=types[i % len(types)],
            availability=float(available[i]),
        )
        for i in range(n)
    ]


def uncapped_portal(sensors: list[Sensor], **options) -> SensorMapPortal:
    """A built portal over ``sensors`` with no per-query sensor cap: the
    benches count whole fleets, and the tile and cell layers need exact
    sub-queries to stay exact."""
    portal = SensorMapPortal(max_sensors_per_query=None, **options)
    portal.register_all(sensors)
    portal.rebuild_index()
    return portal


def hotspot_pool(
    pool_size: int, seed: int, half_range: tuple[float, float], margin: float = 15.0
) -> list[Rect]:
    """``pool_size`` square viewports centred at least ``margin`` from
    the extent's edges, half-width uniform in ``half_range``, clipped to
    the extent."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(pool_size):
        cx = float(rng.uniform(margin, EXTENT - margin))
        cy = float(rng.uniform(margin, EXTENT - margin))
        half = float(rng.uniform(*half_range))
        pool.append(
            Rect(
                max(0.0, cx - half),
                max(0.0, cy - half),
                min(EXTENT, cx + half),
                min(EXTENT, cy + half),
            )
        )
    return pool


def hotspot_viewports(
    level: int, seed: int, half_range: tuple[float, float]
) -> list[SensorQuery]:
    """``level`` concurrent viewport queries drawn round-robin from a
    pool of distinct hotspots — the many-users-same-map-tile shape that
    makes coalescing matter.  The pool grows sublinearly with the level,
    so higher concurrency means more sharing, not just more regions.
    ``half_range`` sets the regime: a few dozen sensors per viewport
    (batch, ``(1, 2)``: one round trip per query vs one per tick), a few
    hundred (transport, ``(1.5, 3)``), or thousands at the 40k fleet
    (federation, ``(8, 20)``: probe rounds are volume-bound, which is
    where splitting the fleet splits collection time)."""
    pool = hotspot_pool(max(1, level // 4), seed, half_range)
    return [
        SensorQuery(region=pool[i % len(pool)], staleness_seconds=STALENESS)
        for i in range(level)
    ]
