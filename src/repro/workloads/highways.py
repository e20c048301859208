"""Highway traffic-sensor workload.

The paper's introduction motivates SensorMap with camera / loop-sensor
networks monitoring highway traffic, and with users combining traffic
conditions and restaurant wait times on one map.  This generator places
traffic sensors along synthetic highway corridors — straight segments
connecting major city pairs, sampled at a fixed mile spacing with small
lateral jitter — giving the *linear* spatial distribution such fleets
exhibit (very different from the blob-shaped restaurant directory,
which exercises different tree shapes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import GeoPoint
from repro.geometry.point import haversine_miles, miles_to_degrees_lat, miles_to_degrees_lon
from repro.sensors.sensor import Sensor
from repro.workloads.cities import CITIES, City


@dataclass(frozen=True, slots=True)
class Corridor:
    """One highway segment between two cities."""

    start: City
    end: City

    @property
    def length_miles(self) -> float:
        return haversine_miles(self.start.lat, self.start.lon, self.end.lat, self.end.lon)


def default_corridors(n: int = 12, max_length_miles: float = 450.0) -> list[Corridor]:
    """Corridors between near-by major city pairs: walking cities in
    descending population order, connect each to its nearest larger
    neighbour when that neighbour is within drivable range — a minimal
    highway backbone.  Stops after ``n`` corridors."""
    if n < 1:
        raise ValueError("n must be positive")
    cities = sorted(CITIES, key=lambda c: -c.population)
    corridors: list[Corridor] = []
    for i, city in enumerate(cities[1:], start=1):
        best: City | None = None
        best_d = float("inf")
        for other in cities[:i]:
            d = haversine_miles(city.lat, city.lon, other.lat, other.lon)
            if d < best_d:
                best, best_d = other, d
        if best is not None and best_d <= max_length_miles:
            corridors.append(Corridor(start=city, end=best))
        if len(corridors) >= n:
            break
    return corridors


class HighwayWorkload:
    """Traffic sensors every ``spacing_miles`` along highway corridors.

    Parameters
    ----------
    corridors:
        The highway segments; defaults to a backbone over the largest
        metros.
    spacing_miles:
        Sensor spacing along each corridor.
    lateral_jitter_miles:
        Gaussian offset perpendicular to the corridor (roadside mounts).
    expiry_seconds:
        Validity of traffic readings (conditions change fast).
    availability:
        Ground-truth probe success probability (cameras drop offline).
    """

    def __init__(
        self,
        corridors: list[Corridor] | None = None,
        spacing_miles: float = 2.0,
        lateral_jitter_miles: float = 0.2,
        expiry_seconds: float = 180.0,
        availability: float = 0.92,
        seed: int = 0,
    ) -> None:
        if spacing_miles <= 0:
            raise ValueError("spacing_miles must be positive")
        self.corridors = corridors if corridors is not None else default_corridors()
        if not self.corridors:
            raise ValueError("need at least one corridor")
        self.spacing_miles = float(spacing_miles)
        self.lateral_jitter_miles = float(lateral_jitter_miles)
        self.expiry_seconds = float(expiry_seconds)
        self.availability = float(availability)
        self.seed = seed

    def sensors(self, start_id: int = 0) -> list[Sensor]:
        """All traffic sensors, ids starting at ``start_id`` (so traffic
        and restaurant fleets can share one registry)."""
        rng = np.random.default_rng(self.seed)
        out: list[Sensor] = []
        sensor_id = start_id
        for corridor in self.corridors:
            n_points = max(2, int(corridor.length_miles / self.spacing_miles))
            for k in range(n_points):
                t = k / (n_points - 1)
                lat = corridor.start.lat + t * (corridor.end.lat - corridor.start.lat)
                lon = corridor.start.lon + t * (corridor.end.lon - corridor.start.lon)
                lat += float(rng.normal(0.0, miles_to_degrees_lat(self.lateral_jitter_miles)))
                lon += float(
                    rng.normal(0.0, miles_to_degrees_lon(self.lateral_jitter_miles, at_lat=lat))
                )
                out.append(
                    Sensor(
                        sensor_id=sensor_id,
                        location=GeoPoint(lon, lat),
                        expiry_seconds=self.expiry_seconds,
                        sensor_type="traffic",
                        availability=self.availability,
                    )
                )
                sensor_id += 1
        return out
