"""The eager ungrouped ``group_answer`` loop, kept as a test oracle.

Until PR 17 ``repro.portal.grouping.group_answer`` built one
``DisplayGroup`` (and one ``AggregateSketch`` and one list) per reading
on every call; the library now returns a view that builds them on
access.  This is the loop it replaced, verbatim, so the property suite
can require the view to equal it element for element.
"""

from __future__ import annotations

from repro.core.aggregates import AggregateSketch
from repro.geometry import GeoPoint
from repro.portal.grouping import DisplayGroup


def reference_group_answer(answer, tree=None, sensor_location=None):
    """``group_answer(answer, None, tree, sensor_location)`` as the
    parent of PR 17 computed it: a list, built per reading."""
    if sensor_location is None:
        if tree is None:
            raise ValueError("need a tree or a sensor_location function")
        sensor_location = lambda sid: tree.sensor(sid).location  # noqa: E731

    groups: list[DisplayGroup] = []
    readings = list(answer.probed_readings) + list(answer.cached_readings)
    for reading in readings:
        sketch = AggregateSketch()
        sketch.add(reading.value, reading.timestamp)
        groups.append(
            DisplayGroup(center=sensor_location(reading.sensor_id), sketch=sketch,
                         readings=[reading])
        )

    # Cached node-level aggregates stay whole: their membership is
    # opaque, so each becomes one group at the node's center.
    for sketch, node_id in zip(answer.cached_sketches, answer.cached_sketch_nodes):
        if tree is not None:
            center = tree.node(node_id).bbox.center
        else:
            center = GeoPoint(0.0, 0.0)
        groups.append(
            DisplayGroup(center=center, sketch=sketch.copy(), from_cache_node=node_id)
        )
    return groups
