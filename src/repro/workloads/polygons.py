"""Polygon viewport workload for the geoblock subsystem.

The rectangle workloads model map viewports; this one models the
*shape-constrained* query class the geoblock planner exists for —
regions a user draws or a GIS layer supplies.  Three families:

``city-boundary``
    An irregular star-shaped polygon around a hotspot city (a
    synthetic municipal boundary): 8–16 vertices at jittered radii
    around the center, angle-sorted so the ring is simple.

``corridor``
    A thin oriented quadrilateral buffering a highway segment between
    two nearby cities (``repro.workloads.highways`` corridors) — long,
    narrow, and axis-*misaligned*, the worst case for MBR-based
    answering and the best case for a polygon-exact traversal.

``convex-random``
    The convex hull of a Gaussian point cloud around a hotspot city —
    moderate-eccentricity convex regions with no axis alignment.

Hotspot cities are drawn with the same population-Zipf skew as the
Live-Local rectangle stream, and sensor placement delegates to
:class:`~repro.workloads.livelocal.LiveLocalWorkload` so polygon and
rectangle benches run over identical sensor sets.  All randomness is
seeded; the stream is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import GeoPoint, Polygon
from repro.geometry.point import miles_to_degrees_lat, miles_to_degrees_lon
from repro.sensors.sensor import Sensor
from repro.workloads.cities import CITIES
from repro.workloads.highways import default_corridors
from repro.workloads.livelocal import LiveLocalWorkload

FAMILIES = ("city-boundary", "corridor", "convex-random")


@dataclass(frozen=True, slots=True)
class PolygonQuerySpec:
    """One generated polygon query."""

    region: Polygon
    family: str
    at_time: float
    staleness_seconds: float


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain; returns hull vertices in CCW order
    (collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class PolygonWorkload:
    """Polygon query stream over the Live-Local sensor placement.

    ``family_weights`` orders over :data:`FAMILIES`; scale, skew,
    inter-arrival and staleness knobs mirror the rectangle workload.
    ``revisit_probability`` re-issues a recent polygon verbatim
    (temporal locality — what makes the L1 viewport cache and the
    geoblock grid's warmed cells pay off).
    """

    def __init__(
        self,
        n_sensors: int = 40_000,
        n_queries: int = 500,
        expiry_seconds=300.0,
        family_weights: tuple[float, float, float] = (0.4, 0.3, 0.3),
        zipf_s: float = 1.1,
        revisit_probability: float = 0.35,
        revisit_window: int = 20,
        mean_interarrival_seconds: float = 0.5,
        staleness_seconds: float = 300.0,
        seed: int = 0,
    ) -> None:
        if len(family_weights) != len(FAMILIES):
            raise ValueError(f"family_weights must order over {FAMILIES}")
        if min(family_weights) < 0 or sum(family_weights) <= 0:
            raise ValueError("family_weights must be non-negative, not all zero")
        if not 0.0 <= revisit_probability <= 1.0:
            raise ValueError("revisit_probability must be in [0, 1]")
        self.base = LiveLocalWorkload(
            n_sensors=n_sensors,
            n_queries=0,
            expiry_seconds=expiry_seconds,
            zipf_s=zipf_s,
            staleness_seconds=staleness_seconds,
            seed=seed,
        )
        self.n_queries = n_queries
        self.family_weights = tuple(
            w / sum(family_weights) for w in family_weights
        )
        self.zipf_s = zipf_s
        self.revisit_probability = revisit_probability
        self.revisit_window = max(1, revisit_window)
        self.mean_interarrival = mean_interarrival_seconds
        self.staleness_seconds = staleness_seconds
        self.seed = seed
        self._corridors = default_corridors()

    # ------------------------------------------------------------------
    # Sensors (shared with the rectangle workloads)
    # ------------------------------------------------------------------
    def sensors(self) -> list[Sensor]:
        return self.base.sensors()

    # ------------------------------------------------------------------
    # Polygon families
    # ------------------------------------------------------------------
    def _hotspot_city(self, rng: np.random.Generator):
        order = np.argsort(-np.array([c.population for c in CITIES]))
        ranks = np.arange(1, len(CITIES) + 1, dtype=np.float64)
        zipf = ranks ** (-self.zipf_s)
        zipf /= zipf.sum()
        return CITIES[int(order[int(rng.choice(len(CITIES), p=zipf))])]

    def _city_boundary(self, rng: np.random.Generator) -> Polygon:
        city = self._hotspot_city(rng)
        radius_miles = float(np.exp(rng.uniform(np.log(5.0), np.log(40.0))))
        n_vertices = int(rng.integers(8, 17))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
        r_lat = miles_to_degrees_lat(radius_miles)
        r_lon = miles_to_degrees_lon(radius_miles, at_lat=city.lat)
        vertices = []
        for angle in angles:
            jitter = float(rng.uniform(0.6, 1.0))
            vertices.append(
                GeoPoint(
                    city.lon + jitter * r_lon * float(np.cos(angle)),
                    city.lat + jitter * r_lat * float(np.sin(angle)),
                )
            )
        return Polygon(vertices)

    def _corridor(self, rng: np.random.Generator) -> Polygon:
        corridor = self._corridors[int(rng.integers(len(self._corridors)))]
        width_miles = float(rng.uniform(3.0, 12.0))
        mid_lat = (corridor.start.lat + corridor.end.lat) / 2.0
        x0, y0 = corridor.start.lon, corridor.start.lat
        x1, y1 = corridor.end.lon, corridor.end.lat
        dx, dy = x1 - x0, y1 - y0
        norm = float(np.hypot(dx, dy))
        # Perpendicular half-width offset in degrees (planar
        # approximation at the corridor's mid-latitude).
        half_lon = miles_to_degrees_lon(width_miles / 2.0, at_lat=mid_lat)
        half_lat = miles_to_degrees_lat(width_miles / 2.0)
        px = -dy / norm * half_lon
        py = dx / norm * half_lat
        return Polygon(
            [
                GeoPoint(x0 + px, y0 + py),
                GeoPoint(x1 + px, y1 + py),
                GeoPoint(x1 - px, y1 - py),
                GeoPoint(x0 - px, y0 - py),
            ]
        )

    def _convex_random(self, rng: np.random.Generator) -> Polygon:
        city = self._hotspot_city(rng)
        radius_miles = float(np.exp(rng.uniform(np.log(5.0), np.log(40.0))))
        r_lat = miles_to_degrees_lat(radius_miles)
        r_lon = miles_to_degrees_lon(radius_miles, at_lat=city.lat)
        while True:
            cloud = [
                (
                    city.lon + float(rng.normal(0.0, r_lon)),
                    city.lat + float(rng.normal(0.0, r_lat)),
                )
                for _ in range(int(rng.integers(8, 15)))
            ]
            hull = _convex_hull(cloud)
            if len(hull) >= 3:
                return Polygon([GeoPoint(x, y) for x, y in hull])

    # ------------------------------------------------------------------
    # Query stream
    # ------------------------------------------------------------------
    def queries(self) -> list[PolygonQuerySpec]:
        """The polygon query stream, ordered by arrival time."""
        rng = np.random.default_rng(self.seed + 3)
        builders = {
            "city-boundary": self._city_boundary,
            "corridor": self._corridor,
            "convex-random": self._convex_random,
        }
        recent: list[tuple[Polygon, str]] = []
        out: list[PolygonQuerySpec] = []
        now = 0.0
        for _ in range(self.n_queries):
            now += float(rng.exponential(self.mean_interarrival))
            if recent and rng.random() < self.revisit_probability:
                region, family = recent[int(rng.integers(len(recent)))]
            else:
                family = FAMILIES[
                    int(rng.choice(len(FAMILIES), p=self.family_weights))
                ]
                region = builders[family](rng)
                recent.append((region, family))
                if len(recent) > self.revisit_window:
                    recent.pop(0)
            out.append(
                PolygonQuerySpec(
                    region=region,
                    family=family,
                    at_time=now,
                    staleness_seconds=self.staleness_seconds,
                )
            )
        return out
