"""Spatial primitives used throughout the COLR-Tree reproduction.

The index itself works in planar (x, y) coordinates; for geographic
workloads we map longitude to ``x`` and latitude to ``y``.  Distances in
miles (for the ``CLUSTER`` clause of portal queries) use the haversine
formula from :mod:`repro.geometry.point`.

Public classes
--------------
``GeoPoint``
    An immutable 2-D point.
``Rect``
    An axis-aligned rectangle: the bounding-box type of tree nodes and of
    viewport queries.  Provides intersection, containment, area and the
    *overlap fraction* used by layered sampling (line 9 / 17 of
    Algorithm 1 in the paper).
``Polygon``
    A simple polygon for ``WITHIN Polygon(...)`` query regions, with
    point-in-polygon and rectangle-relation tests.
"""

from repro.geometry.point import GeoPoint, haversine_miles
from repro.geometry.rect import Rect
from repro.geometry.polygon import Polygon

__all__ = [
    "GeoPoint",
    "Rect",
    "Polygon",
    "haversine_miles",
]
