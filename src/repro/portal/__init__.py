"""The SensorMap portal layer (Section III).

The portal is the application COLR-Tree was built for: publishers
register live sensors, users pan/zoom a map and issue spatio-temporal
queries with a ``CLUSTER`` distance (viewport grouping) and a
``SAMPLESIZE`` bound (probe budget).  This package provides:

``SensorQuery`` / ``parse_query``
    The query model and a parser for the paper's SQL-ish dialect
    (``SELECT count(*) FROM sensor S WHERE S.location WITHIN
    Polygon(...) AND S.time BETWEEN now()-10 AND now() mins CLUSTER 10
    miles SAMPLESIZE 30``).
``group_answer``
    Viewport grouping: near-by result sensors merged into groups with
    per-group aggregates, cached aggregates placed at their node's
    center.  Without ``CLUSTER`` the groups are a view over the answer,
    built when read.
``SensorMapPortal``
    The end-to-end facade: registration, index (re)builds, query
    execution with latency accounting.
``execute_batch`` (``SensorMapPortal.execute_batch``)
    One tick's in-flight queries as a batch: shared traversals,
    coalesced sensor probes, grouped cache ingestion.
"""

from repro.portal.query import SensorQuery
from repro.portal.parser import QueryParseError, parse_query
from repro.portal.grouping import DisplayGroup, group_answer, group_by_terminal
from repro.portal.portal import PortalResult, SensorMapPortal
from repro.portal.batch import BatchResult, BatchStats
from repro.portal.continuous import (
    ContinuousQueryManager,
    ResultDelta,
    Subscription,
)

__all__ = [
    "BatchResult",
    "BatchStats",
    "ContinuousQueryManager",
    "DisplayGroup",
    "PortalResult",
    "QueryParseError",
    "ResultDelta",
    "SensorMapPortal",
    "SensorQuery",
    "Subscription",
    "group_answer",
    "group_by_terminal",
    "parse_query",
]
