"""COLR-Tree reproduction (Ahmad & Nath, ICDE 2008).

A communication-efficient spatio-temporal index for a sensor-data web
portal: an R-tree bulk-built with k-means clustering whose nodes carry
expiry-aware *slot caches* of partial aggregates, combined with a
one-pass *layered sampling* range lookup that bounds per-query sensor
probes.

Quickstart
----------
>>> from repro import (COLRTree, COLRTreeConfig, SensorNetwork,
...                    SensorRegistry, Rect, GeoPoint)
>>> registry = SensorRegistry()
>>> for i in range(100):
...     _ = registry.register(GeoPoint(i % 10, i // 10), expiry_seconds=300)
>>> network = SensorNetwork(registry.all())
>>> tree = COLRTree(registry.all(), COLRTreeConfig(), network=network)
>>> answer = tree.query(Rect(0, 0, 5, 5), now=0.0, max_staleness=600,
...                     sample_size=10)
>>> answer.probed_count <= 100
True
"""

from repro.core import (
    AggregateSketch,
    COLRNode,
    COLRTree,
    COLRTreeConfig,
    QueryAnswer,
    QueryStats,
    SlotCache,
    SlotSizeModel,
    build_colr_tree,
    layered_sample,
    optimal_slot_size,
)
from repro.geometry import GeoPoint, Polygon, Rect
from repro.sensors import (
    AvailabilityModel,
    Reading,
    Sensor,
    SensorNetwork,
    SensorRegistry,
    SimClock,
    SpatialField,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateSketch",
    "AvailabilityModel",
    "COLRNode",
    "COLRTree",
    "COLRTreeConfig",
    "GeoPoint",
    "Polygon",
    "QueryAnswer",
    "QueryStats",
    "Reading",
    "Rect",
    "Sensor",
    "SensorNetwork",
    "SensorRegistry",
    "SimClock",
    "SlotCache",
    "SlotSizeModel",
    "SpatialField",
    "build_colr_tree",
    "layered_sample",
    "optimal_slot_size",
    "__version__",
]
