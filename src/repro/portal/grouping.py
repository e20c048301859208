"""Viewport grouping (the ``CLUSTER`` clause).

A query over a large region in a fixed-size viewport would paint
overlapping icons; SensorMap instead groups near-by sensors and shows a
per-group aggregate (Section III-B).  We group raw result readings on a
grid of ``cluster_miles`` cells (two sensors in one cell are within
roughly the cluster distance) and pass cached node-level aggregates
through as their own groups anchored at the node's bounding-box center.

Without ``CLUSTER`` (and without a zoom level) every reading is its own
group, so the groups say nothing the answer does not: they are a
:class:`GroupView`, a read-only sequence that builds each
:class:`DisplayGroup` from the answer's lists when it is read.  The
serving path — execute, gather, compose — never walks readings to make
display objects nobody asked for, and a worker's reply frame carries
the answers alone (:mod:`repro.parallel.wire`): the coordinator puts
the view back over them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

from repro.core.aggregates import AggregateSketch
from repro.core.lookup import QueryAnswer
from repro.geometry import GeoPoint
from repro.geometry.point import miles_to_degrees_lat, miles_to_degrees_lon
from repro.sensors.sensor import Reading, Sensor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tree import COLRTree


@dataclass
class DisplayGroup:
    """One icon-group on the map: a location, the member readings (when
    raw), and the aggregate sketch to render."""

    center: GeoPoint
    sketch: AggregateSketch
    readings: list[Reading] = field(default_factory=list)
    from_cache_node: int | None = None

    @property
    def size(self) -> int:
        return self.sketch.count

    def result(self, function: str) -> float:
        return self.sketch.result(function)


def _readings(answer: QueryAnswer) -> Iterator[Reading]:
    return chain(answer.probed_readings, answer.cached_readings)


def _center(sources: tuple[Mapping, ...], sensor_id: int) -> GeoPoint:
    for source in sources:
        hit = source.get(sensor_id)
        if hit is not None:
            return hit.location if isinstance(hit, Sensor) else hit
    raise KeyError(f"no location known for sensor {sensor_id}")


def _reading_group(sources: tuple[Mapping, ...], reading: Reading) -> DisplayGroup:
    sketch = AggregateSketch()
    sketch.add(reading.value, reading.timestamp)
    return DisplayGroup(
        center=_center(sources, reading.sensor_id), sketch=sketch, readings=[reading]
    )


class GroupView(Sequence[DisplayGroup]):
    """The display groups of ungrouped answers, as a read-only view.

    One group per probed reading, then per cached reading, then per
    cached sketch, answer after answer — element for element the list
    an eager loop over the same answers builds, and equal to it under
    ``==``.  Nothing is built until the view is iterated, indexed or
    compared; ``len`` only adds list lengths.  The answers' lists are
    read at access time, so filtering an answer's readings in place
    (the federation's top-up dedup) filters its groups.

    A view is a tuple of parts, one ``(answer, sources,
    sketch_centers)`` per answer.  ``sources`` say where a reading's
    sensor sits: ``sensor_id -> Sensor`` mappings held by reference (a
    tree's build-time table, the process coordinator's per-shard table)
    or ``sensor_id -> GeoPoint`` dicts (what a view pickles as) — never
    a tree, a portal or a closure over one: a cached result must not
    keep a replaced shard's index alive.  ``sketch_centers`` are the
    centers of the answer's cached sketches, parallel to them.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[tuple]) -> None:
        self._parts = tuple(parts)

    @property
    def parts(self) -> tuple[tuple, ...]:
        """The ``(answer, sources, sketch_centers)`` triples."""
        return self._parts

    def __len__(self) -> int:
        return sum(
            len(answer.probed_readings)
            + len(answer.cached_readings)
            + len(answer.cached_sketches)
            for answer, _, _ in self._parts
        )

    def __iter__(self) -> Iterator[DisplayGroup]:
        for answer, sources, sketch_centers in self._parts:
            for reading in _readings(answer):
                yield _reading_group(sources, reading)
            # Cached node-level aggregates stay whole: their membership
            # is opaque, so each is one group at the node's center.
            for sketch, node_id, center in zip(
                answer.cached_sketches, answer.cached_sketch_nodes, sketch_centers
            ):
                yield DisplayGroup(
                    center=center, sketch=sketch.copy(), from_cache_node=node_id
                )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += len(self)
        if index >= 0:
            for answer, sources, sketch_centers in self._parts:
                for readings in (answer.probed_readings, answer.cached_readings):
                    if index < len(readings):
                        return _reading_group(sources, readings[index])
                    index -= len(readings)
                if index < len(answer.cached_sketches):
                    return DisplayGroup(
                        center=sketch_centers[index],
                        sketch=answer.cached_sketches[index].copy(),
                        from_cache_node=answer.cached_sketch_nodes[index],
                    )
                index -= len(answer.cached_sketches)
        raise IndexError("group index out of range")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (GroupView, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        """Pickle as the answers plus each one's own ``sensor_id ->
        center`` dict — no ``DisplayGroup`` and no sensor table; the
        unpickled view resolves through the dict exactly as this one
        does through its sources.  (The op pipe's hot replies do not
        come this way: see :mod:`repro.parallel.wire`.)"""
        return GroupView, (
            tuple(
                (
                    answer,
                    (
                        {
                            r.sensor_id: _center(sources, r.sensor_id)
                            for r in _readings(answer)
                        },
                    ),
                    sketch_centers,
                )
                for answer, sources, sketch_centers in self._parts
            ),
        )

    @staticmethod
    def locators(
        groups: Sequence[DisplayGroup],
    ) -> tuple[tuple[Mapping, ...], tuple[GeoPoint, ...]]:
        """What :meth:`over` reads of one answer's groups: its view
        parts' sources, each once and in order, and their sketch centers
        in order — none for a plain list (clustered or zoom groups)."""
        if not isinstance(groups, GroupView):
            return (), ()
        parts = groups._parts
        sources = {id(source): source for _, sources, _ in parts for source in sources}
        centers = tuple(center for _, _, centers in parts for center in centers)
        return tuple(sources.values()), centers

    @classmethod
    def over(
        cls,
        answer: QueryAnswer,
        pieces: Iterable[tuple[tuple[Mapping, ...], tuple[GeoPoint, ...]]],
    ) -> "GroupView":
        """The view of an answer merged from others (the front door's
        tile compose), given each one's :meth:`locators`: it resolves
        through their sources, and its cached sketches' centers are
        theirs in order."""
        sources: dict[int, Mapping] = {}
        centers: list[GeoPoint] = []
        for piece_sources, piece_centers in pieces:
            for source in piece_sources:
                sources.setdefault(id(source), source)
            centers += piece_centers
        return cls(((answer, tuple(sources.values()), tuple(centers)),))


def concat_groups(pieces: Sequence[Sequence[DisplayGroup]]) -> Sequence[DisplayGroup]:
    """Per-tree (or per-shard) groups as one sequence, in order.  Views
    concatenate into a view — no group is built; clustered and zoom
    groups are lists and concatenate into a list."""
    if len(pieces) == 1:
        return pieces[0]
    if all(isinstance(piece, GroupView) for piece in pieces):
        return GroupView(chain.from_iterable(piece._parts for piece in pieces))
    return [group for piece in pieces for group in piece]


def group_answer(
    answer: QueryAnswer,
    cluster_miles: float | None,
    tree: "COLRTree | None" = None,
    sensor_location=None,
) -> Sequence[DisplayGroup]:
    """Group a query answer for display.

    ``sensor_location`` maps a sensor id to a :class:`GeoPoint`; when
    omitted, the tree's sensors are used.  With ``cluster_miles=None``
    every reading is its own group (full zoom) and the result is a
    :class:`GroupView` over ``answer``.
    """
    if sensor_location is None and tree is None:
        raise ValueError("need a tree or a sensor_location function")
    nodes = answer.cached_sketch_nodes
    if tree is not None:
        sketch_centers = tuple([tree.node(node_id).bbox.center for node_id in nodes])
    else:
        sketch_centers = (GeoPoint(0.0, 0.0),) * len(nodes)

    if cluster_miles is None:
        if sensor_location is None:
            # The tree's build-time table, written once in ``__init__``.
            source = tree._sensors
        else:
            source = {
                r.sensor_id: sensor_location(r.sensor_id) for r in _readings(answer)
            }
        return GroupView(((answer, (source,), sketch_centers),))

    if sensor_location is None:
        sensor_location = lambda sid: tree.sensor(sid).location  # noqa: E731
    groups: list[DisplayGroup] = []
    cells: dict[tuple[int, int], DisplayGroup] = {}
    dlat = miles_to_degrees_lat(cluster_miles)
    for reading in _readings(answer):
        loc = sensor_location(reading.sensor_id)
        dlon = miles_to_degrees_lon(cluster_miles, at_lat=loc.lat)
        key = (int(loc.x // dlon), int(loc.y // dlat))
        group = cells.get(key)
        if group is None:
            group = DisplayGroup(center=loc, sketch=AggregateSketch())
            cells[key] = group
            groups.append(group)
        group.sketch.add(reading.value, reading.timestamp)
        group.readings.append(reading)
    # Re-center each group on its members.
    for group in groups:
        if group.readings:
            xs = [sensor_location(r.sensor_id).x for r in group.readings]
            ys = [sensor_location(r.sensor_id).y for r in group.readings]
            group.center = GeoPoint(sum(xs) / len(xs), sum(ys) / len(ys))

    # Cached node-level aggregates stay whole: their membership is
    # opaque, so each becomes one group at the node's center.
    for sketch, node_id, center in zip(
        answer.cached_sketches, answer.cached_sketch_nodes, sketch_centers
    ):
        groups.append(
            DisplayGroup(center=center, sketch=sketch.copy(), from_cache_node=node_id)
        )
    return groups


def group_by_terminal(
    answer: QueryAnswer,
    tree: "COLRTree",
    level: int,
) -> list[DisplayGroup]:
    """Multi-resolution grouping: one group per tree node at ``level``.

    This is the paper's zoom-level presentation — "one sample (or
    aggregate computed over the sample) is returned for each non-leaf
    node at level T".  Each raw reading is assigned to its level-
    ``level`` ancestor (or its leaf, for shallow subtrees); cached
    aggregates are assigned to their source node's ancestor the same
    way.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    groups: dict[int, DisplayGroup] = {}

    def group_for(node_id: int) -> DisplayGroup:
        anchor = _ancestor_at_level(tree, node_id, level)
        group = groups.get(anchor.node_id)
        if group is None:
            group = DisplayGroup(center=anchor.bbox.center, sketch=AggregateSketch())
            groups[anchor.node_id] = group
        return group

    for reading in list(answer.probed_readings) + list(answer.cached_readings):
        leaf = tree.leaf_for(reading.sensor_id)
        group = group_for(leaf.node_id)
        group.sketch.add(reading.value, reading.timestamp)
        group.readings.append(reading)
    for sketch, node_id in zip(answer.cached_sketches, answer.cached_sketch_nodes):
        group = group_for(node_id)
        group.sketch.merge(sketch.copy())
        if group.from_cache_node is None:
            group.from_cache_node = node_id
    return list(groups.values())


def _ancestor_at_level(tree: "COLRTree", node_id: int, level: int):
    node = tree.node(node_id)
    while node.level > level and node.parent is not None:
        node = node.parent
    return node
