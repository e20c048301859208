"""Sensor metadata and readings.

A sensor publishes *static* metadata at registration time (location,
type, how long its readings stay valid) and produces timestamped
``Reading`` values when probed.  Expiry semantics follow the paper: a
reading carries a fixed validity range, and any aggregate containing the
reading must be discarded once the reading expires (Section IV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.geometry import GeoPoint


@dataclass(frozen=True, slots=True)
class Sensor:
    """Static metadata for one registered sensor.

    Parameters
    ----------
    sensor_id:
        Dense non-negative integer identifier, unique per registry.
    location:
        Fixed position.  The paper assumes locations change rarely;
        COLR-Tree is rebuilt periodically to absorb moves.
    expiry_seconds:
        How long a reading from this sensor remains valid.  Different
        publishers choose very different values (Figure 2's workloads),
        which is exactly what makes aggregate caching hard.
    sensor_type:
        Free-form type tag (``"restaurant"``, ``"water"``, ...) used by
        portal queries to filter.
    availability:
        Ground-truth probability that a probe succeeds.  The index never
        reads this directly — it sees only historical estimates from
        :class:`repro.sensors.availability.AvailabilityModel`.
    """

    sensor_id: int
    location: GeoPoint
    expiry_seconds: float
    sensor_type: str = "generic"
    availability: float = 1.0
    metadata: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.sensor_id < 0:
            raise ValueError("sensor_id must be non-negative")
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise ValueError(f"sensor location must be finite, got {self.location}")
        # A negated conjunction, so NaN (every comparison false) is
        # rejected too.
        if not 0.0 < self.expiry_seconds < math.inf:
            raise ValueError(
                f"expiry_seconds must be positive and finite, got {self.expiry_seconds}"
            )
        if not 0.0 <= self.availability <= 1.0:
            raise ValueError("availability must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class Reading:
    """A single timestamped sensor value.

    ``expires_at`` is the instant the value becomes invalid; consumers
    (slot caches, query answers) must treat the reading as unusable at or
    after that time.
    """

    sensor_id: int
    value: float
    timestamp: float
    expires_at: float

    def __post_init__(self) -> None:
        if self.expires_at < self.timestamp:
            raise ValueError("a reading cannot expire before it was taken")

    def is_valid_at(self, instant: float) -> bool:
        """True while the reading has not expired."""
        return instant < self.expires_at

    def is_fresh_at(self, instant: float, max_staleness: float) -> bool:
        """True when the reading is unexpired *and* within the user's
        staleness bound (``S.time BETWEEN now()-w AND now()``)."""
        return self.is_valid_at(instant) and (instant - self.timestamp) <= max_staleness
