"""Parser for the paper's SQL-ish query dialect.

The grammar covers exactly what Section III-B's example exercises, plus
a rectangle shorthand and a type filter::

    SELECT <agg>(*|value)
    FROM sensor S
    WHERE S.location WITHIN Polygon((lat, lon), (lat, lon), ...)
      [AND S.type = '<type>']
      AND S.time BETWEEN now()-<n> AND now() [mins|secs|hours]
    [CLUSTER <d> miles]
    [SAMPLESIZE <r>]
    [ZOOM <level>]

``Rect(min_lat, min_lon, max_lat, max_lon)`` may be used in place of
``Polygon``.  Keywords are case-insensitive; whitespace is free-form.
Coordinates are read by ``float()`` (``47.5``, ``-122``, ``.5``,
``1e-3``); a region's parentheses may hold nothing else.
"""

from __future__ import annotations

import re

from repro.geometry import Polygon, Rect
from repro.portal.query import SensorQuery


class QueryParseError(ValueError):
    """Raised with a human-readable message when a query is malformed."""


_SELECT_RE = re.compile(
    r"^\s*select\s+(count|sum|avg|min|max)\s*\(\s*(?:\*|value|s\.value)\s*\)\s+"
    r"from\s+sensor(?:\s+s)?\s+where\s+",
    re.IGNORECASE,
)
_POLYGON_RE = re.compile(
    r"s\.location\s+within\s+polygon\s*\(\s*(.*?)\s*\)\s*(?=and|cluster|samplesize|$)",
    re.IGNORECASE | re.DOTALL,
)
_RECT_RE = re.compile(
    r"s\.location\s+within\s+rect\s*\(\s*([^)]*?)\s*\)",
    re.IGNORECASE,
)
_TIME_RE = re.compile(
    r"s\.time\s+between\s+now\s*\(\s*\)\s*-\s*(\d+(?:\.\d+)?)\s+and\s+now\s*\(\s*\)"
    r"\s*(mins?|minutes?|secs?|seconds?|hours?)?",
    re.IGNORECASE,
)
_TYPE_RE = re.compile(r"s\.type\s*=\s*'([^']*)'", re.IGNORECASE)
_CLUSTER_RE = re.compile(r"cluster\s+(\d+(?:\.\d+)?)\s*miles?", re.IGNORECASE)
_SAMPLE_RE = re.compile(r"samplesize\s+(\d+)", re.IGNORECASE)
_ZOOM_RE = re.compile(r"zoom\s+(\d+)", re.IGNORECASE)
# The body of Polygon(...): parenthesised vertices, comma-separated.
_RING_RE = re.compile(r"\([^()]*\)(?:\s*,\s*\([^()]*\))*")
_VERTEX_RE = re.compile(r"\(([^()]*)\)")

_UNIT_SECONDS = {
    "sec": 1.0,
    "secs": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "min": 60.0,
    "mins": 60.0,
    "minute": 60.0,
    "minutes": 60.0,
    "hour": 3600.0,
    "hours": 3600.0,
}


def parse_query(sql: str) -> SensorQuery:
    """Parse one query; raises :class:`QueryParseError` on any problem."""
    head = _SELECT_RE.match(sql)
    if head is None:
        raise QueryParseError(
            "query must start with SELECT <agg>(*) FROM sensor S WHERE ..."
        )
    aggregate = head.group(1).lower()
    region = _parse_region(sql)
    staleness = _parse_time_window(sql)

    type_match = _TYPE_RE.search(sql)
    cluster_match = _CLUSTER_RE.search(sql)
    sample_match = _SAMPLE_RE.search(sql)
    zoom_match = _ZOOM_RE.search(sql)
    return SensorQuery(
        region=region,
        staleness_seconds=staleness,
        aggregate=aggregate,
        cluster_miles=float(cluster_match.group(1)) if cluster_match else None,
        sample_size=int(sample_match.group(1)) if sample_match else None,
        sensor_type=type_match.group(1) if type_match else None,
        zoom_level=int(zoom_match.group(1)) if zoom_match else None,
    )


def _parse_region(sql: str) -> Rect | Polygon:
    rect_match = _RECT_RE.search(sql)
    if rect_match is not None:
        parts = [p.strip() for p in rect_match.group(1).split(",")]
        if len(parts) != 4:
            raise QueryParseError("Rect(...) needs min_lat, min_lon, max_lat, max_lon")
        try:
            min_lat, min_lon, max_lat, max_lon = (float(p) for p in parts)
        except ValueError as exc:
            raise QueryParseError(f"bad Rect coordinates: {exc}") from None
        if min_lat > max_lat or min_lon > max_lon:
            raise QueryParseError("Rect bounds are inverted")
        try:
            return Rect(min_lon, min_lat, max_lon, max_lat)
        except ValueError as exc:  # a NaN bound compares as not inverted
            raise QueryParseError(f"bad Rect: {exc}") from None
    poly_match = _POLYGON_RE.search(sql)
    if poly_match is None:
        raise QueryParseError(
            "query needs S.location WITHIN Polygon(...) or Rect(...)"
        )
    pairs = _parse_vertices(poly_match.group(1))
    if len(pairs) < 3:
        raise QueryParseError("Polygon(...) needs at least 3 (lat, lon) vertices")
    try:
        return Polygon.from_latlon_pairs(pairs)
    except ValueError as exc:
        raise QueryParseError(f"bad polygon: {exc}") from None


def _parse_vertices(body: str) -> list[tuple[float, float]]:
    """``(lat, lon), (lat, lon), ...`` and nothing else: text the
    vertex list does not account for is an error, not something to scan
    past (a vertex that fails to match would silently change the
    region)."""
    if _RING_RE.fullmatch(body) is None:
        raise QueryParseError(
            "Polygon(...) must hold comma-separated (lat, lon) pairs, "
            f"got {body!r}"
        )
    pairs = []
    for vertex in _VERTEX_RE.findall(body):
        parts = vertex.split(",")
        if len(parts) != 2:
            raise QueryParseError(f"polygon vertex ({vertex}) is not a (lat, lon) pair")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise QueryParseError(f"bad polygon coordinates: {exc}") from None
    return pairs


def _parse_time_window(sql: str) -> float:
    time_match = _TIME_RE.search(sql)
    if time_match is None:
        raise QueryParseError(
            "query needs S.time BETWEEN now()-<n> AND now() [mins]"
        )
    amount = float(time_match.group(1))
    unit = (time_match.group(2) or "mins").lower()
    if unit not in _UNIT_SECONDS:
        raise QueryParseError(f"unknown time unit {unit!r}")
    return amount * _UNIT_SECONDS[unit]
