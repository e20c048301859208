"""Workload generators standing in for the paper's proprietary datasets.

The evaluation uses three data sources we cannot ship:

* the Windows Live Local workload (106 k viewport queries + 370 k
  restaurant locations) → :mod:`repro.workloads.livelocal`, a generator
  with population-weighted sensor placement over real US city
  coordinates and a query stream with the spatio-temporal locality the
  cache depends on;
* USGS / Weather Underground expiry-time distributions (Figure 2) →
  :mod:`repro.workloads.expiry`, parametric mixtures matching the
  papers' qualitative shapes (long-expiry vs short-expiry);
* 200 USGS water-discharge gauges in Washington state (Figure 7) →
  :mod:`repro.workloads.usgs`, synthetic gauges over a spatially
  correlated discharge field.

DESIGN.md records why each substitution preserves the behaviour the
corresponding experiment measures.
"""

from repro.workloads.churn import ChurnTick, ChurnWorkload
from repro.workloads.cities import CITIES, City
from repro.workloads.expiry import (
    uniform_expiry,
    usgs_like_expiry,
    weather_like_expiry,
)
from repro.workloads.highways import Corridor, HighwayWorkload, default_corridors
from repro.workloads.livelocal import (
    LiveLocalWorkload,
    OpenLoopWorkload,
    QuerySpec,
    TenantRequest,
)
from repro.workloads.polygons import PolygonQuerySpec, PolygonWorkload
from repro.workloads.usgs import UsgsWaWorkload

__all__ = [
    "CITIES",
    "ChurnTick",
    "ChurnWorkload",
    "City",
    "Corridor",
    "HighwayWorkload",
    "LiveLocalWorkload",
    "OpenLoopWorkload",
    "PolygonQuerySpec",
    "PolygonWorkload",
    "QuerySpec",
    "TenantRequest",
    "UsgsWaWorkload",
    "default_corridors",
    "uniform_expiry",
    "usgs_like_expiry",
    "weather_like_expiry",
]
