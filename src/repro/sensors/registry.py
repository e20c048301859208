"""The publisher-facing registration store.

SensorMap publishers register sensors with static metadata (Section
III-A).  The registry is the source of truth the index is built from: it
assigns dense ids, validates metadata and exposes typed lookups.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.geometry import GeoPoint
from repro.sensors.sensor import Sensor


class SensorRegistry:
    """An append-mostly store of registered sensors."""

    def __init__(self) -> None:
        self._sensors: dict[int, Sensor] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        location: GeoPoint,
        expiry_seconds: float,
        sensor_type: str = "generic",
        availability: float = 1.0,
        metadata: dict[str, str] | None = None,
    ) -> Sensor:
        """Register one sensor and return its record (with assigned id)."""
        sensor = Sensor(
            sensor_id=self._next_id,
            location=location,
            expiry_seconds=expiry_seconds,
            sensor_type=sensor_type,
            availability=availability,
            metadata=tuple(sorted((metadata or {}).items())),
        )
        self._sensors[sensor.sensor_id] = sensor
        self._next_id += 1
        return sensor

    def register_all(self, sensors: Iterable[Sensor]) -> None:
        """Bulk-register pre-built sensors (workload generators)."""
        for sensor in sensors:
            if sensor.sensor_id in self._sensors:
                raise ValueError(f"duplicate sensor id {sensor.sensor_id}")
            self._sensors[sensor.sensor_id] = sensor
            self._next_id = max(self._next_id, sensor.sensor_id + 1)

    def unregister(self, sensor_id: int) -> None:
        """Remove a sensor (publisher withdrew it)."""
        if sensor_id not in self._sensors:
            raise KeyError(f"unknown sensor id {sensor_id}")
        del self._sensors[sensor_id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sensors)

    def __iter__(self) -> Iterator[Sensor]:
        return iter(self._sensors.values())

    def all(self) -> list[Sensor]:
        """All sensors in id order."""
        return [self._sensors[sid] for sid in sorted(self._sensors)]
