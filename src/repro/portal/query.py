"""The portal's query model.

A ``SensorQuery`` is the parsed form of the SQL-ish queries SensorMap
issues to the back-end database (Section III-B): a spatial region, a
freshness window, an aggregate to compute, and the two COLR-Tree
extensions — ``CLUSTER`` (viewport grouping distance in miles) and
``SAMPLESIZE`` (the probe budget R).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.geometry import Polygon, Rect

_AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class SensorQuery:
    """One spatio-temporal portal query.

    Parameters
    ----------
    region:
        The polygonal or rectangular region of interest.
    staleness_seconds:
        The maximum data staleness the user accepts (the ``S.time
        BETWEEN now()-w AND now()`` window).
    aggregate:
        Aggregate function over the result (``count`` by default).
    cluster_miles:
        Group sensors within this distance for display; ``None``
        disables grouping.
    sample_size:
        Probe budget ``R``; ``None`` means exact (probe everything
        relevant).
    sensor_type:
        Restrict to one registered sensor type, or ``None`` for all.
    zoom_level:
        Map zoom expressed as a tree level: sampling terminates below
        this level and results are grouped per node at it (one
        aggregate icon per node).  ``None`` uses the index defaults and
        grid-based ``CLUSTER`` grouping.
    """

    region: Rect | Polygon
    staleness_seconds: float
    aggregate: str = "count"
    cluster_miles: float | None = None
    sample_size: int | None = None
    sensor_type: str | None = None
    zoom_level: int | None = None

    def __post_init__(self) -> None:
        # Negated conjunctions, as in ``Rect``: a NaN (every comparison
        # false) is rejected too; an infinite staleness stays legal.
        if not self.staleness_seconds >= 0:
            raise ValueError("staleness_seconds must be non-negative")
        if self.aggregate not in _AGGREGATES:
            raise ValueError(
                f"unsupported aggregate {self.aggregate!r}; use one of {_AGGREGATES}"
            )
        if self.cluster_miles is not None and not self.cluster_miles > 0:
            raise ValueError("cluster_miles must be positive when given")
        if self.sample_size is not None and self.sample_size < 0:
            raise ValueError("sample_size must be non-negative when given")
        if self.zoom_level is not None and self.zoom_level < 0:
            raise ValueError("zoom_level must be non-negative when given")


def normalize_region(query: SensorQuery) -> SensorQuery:
    """``query`` with a rectangle drawn as a polygon replaced by its
    ``Rect``; any other query as it is.  The portal's executor and the
    federation coordinator apply it first, so only a genuine polygon is
    ever answered as one."""
    region = query.region
    if isinstance(region, Polygon):
        rect = region.as_rect()
        if rect is not None:
            return replace(query, region=rect)
    return query
