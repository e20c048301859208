"""Points and distance metrics.

Coordinates are stored as plain floats.  For geographic data we follow the
``(x=longitude, y=latitude)`` convention so that planar math (bounding
boxes, overlap fractions) and geographic math (haversine miles for the
``CLUSTER`` radius) can coexist on the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_EARTH_RADIUS_MILES = 3958.7613


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """An immutable 2-D point.

    ``x`` is longitude (degrees) and ``y`` is latitude (degrees) for
    geographic workloads, but any planar coordinate system works for the
    index logic, which never assumes units.
    """

    x: float
    y: float

    @property
    def lon(self) -> float:
        """Longitude alias for ``x``."""
        return self.x

    @property
    def lat(self) -> float:
        """Latitude alias for ``y``."""
        return self.y


def haversine_miles(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in miles between two (lat, lon) pairs.

    Used by the portal's ``CLUSTER <miles>`` grouping and by workload
    generators that scatter sensors around city centers.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    )
    return 2.0 * _EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(a)))


def miles_to_degrees_lat(miles: float) -> float:
    """Approximate degrees of latitude spanned by ``miles``."""
    return miles / 69.0


def miles_to_degrees_lon(miles: float, at_lat: float) -> float:
    """Approximate degrees of longitude spanned by ``miles`` at a latitude.

    Longitude degrees shrink with the cosine of the latitude; we clamp the
    cosine away from zero so polar queries stay finite.
    """
    cos_lat = max(0.05, math.cos(math.radians(at_lat)))
    return miles / (69.0 * cos_lat)
