"""What a worker's reply frame holds.

:mod:`repro.parallel.framing` moves one pickled object per frame; this
module decides what that object is.  A worker turns every reply into
``(kind, payload)`` with :func:`pack` and the coordinator turns it back
with :func:`unpack`; the kind is chosen from the reply itself, never
from a setting.

``"batch"`` — the hot reply, and the only op the coordinator scatters
(``execute_batch``: a lone query is a batch of one, a polygon an
ordinary query): a ``BatchResult`` whose results' groups are each a
:class:`~repro.portal.grouping.GroupView` travels as columns, not as an
object graph::

    batch payload  = ((table, [result_row, ...]), BatchStats)
    table      = (array('q') sensor ids, array('d') values,
                  array('d') timestamps, array('d') expiries)
    result_row = (class, [answer_row, ...], processing_seconds,
                  collection_seconds, sample_requested,
                  subclass extras (a PolygonResult's four counts),
                  query or None)
    answer_row = (array('I') probed rows, array('I') cached rows,
                  cached_sketches, cached_sketch_nodes, terminals,
                  QueryStats as a tuple in QUERY_STATS_FIELDS order,
                  sketch_centers)

- **One reading table per frame.**  Every distinct ``Reading`` is sent
  once, deduplicated by object identity as pickle's memo would, and each
  answer names its readings by row.  One ``execute_batch`` tick serves a
  cached reading to many of its viewports, so a per-answer table would
  send (and rebuild) it once per viewport; and a reading two answers
  share on the worker comes out one shared object here too.
- **No per-reading centers.**  The coordinator rebuilds each view part
  over the ``sensor_id -> Sensor`` table it made from the ``ShardSpec``
  it spawned the worker with — the same sensors the worker's trees
  resolve through.
- **No echoed query.**  A result whose ``query`` *is* the one the op was
  called with (always, except a rectangle drawn as a polygon, which the
  shard normalises) sends ``None`` and gets the coordinator's own
  object back.

``"ok"`` — everything else is the reply object itself, pickled by the
framing: batches with ``CLUSTER`` / zoom-level results (their groups are
``DisplayGroup`` lists) or readings whose values are not floats (a
custom ``value_fn``; an ``array('d')`` would silently coerce them),
``stats``, ``export_cache``, ``checkpoint``.

:data:`CARRIED` names, per dataclass, the fields the columnar arm moves;
``tests/parallel/test_wire.py`` holds it equal to ``dataclasses.fields``
so a field added to a result type fails there instead of reading its
default on this backend only.
"""

from __future__ import annotations

from array import array
from dataclasses import fields
from functools import cache
from operator import attrgetter
from typing import Mapping, Sequence

from repro.core.lookup import QueryAnswer
from repro.core.stats import QUERY_STATS_FIELDS, QueryStats
from repro.portal.batch import BatchResult
from repro.portal.grouping import GroupView
from repro.portal.portal import PortalResult
from repro.sensors.sensor import Reading, Sensor

__all__ = ["CARRIED", "pack", "unpack"]

CARRIED: dict[type, tuple[str, ...]] = {
    PortalResult: (
        "query",
        "groups",
        "answers",
        "processing_seconds",
        "collection_seconds",
        "sample_requested",
    ),
    QueryAnswer: (
        "probed_readings",
        "cached_readings",
        "cached_sketches",
        "cached_sketch_nodes",
        "terminals",
        "stats",
    ),
    QueryStats: QUERY_STATS_FIELDS,
    BatchResult: ("results", "stats"),
}

_stats_row = attrgetter(*QUERY_STATS_FIELDS)


@cache
def _extra_fields(cls: type) -> tuple[str, ...]:
    """The fields a ``PortalResult`` subclass adds (``PolygonResult``'s
    cell counts), in declaration order."""
    return tuple(f.name for f in fields(cls))[len(CARRIED[PortalResult]) :]


def pack(reply: object, args: tuple) -> tuple[str, object]:
    """The ``(kind, payload)`` a worker sends for ``reply`` to an op
    called with ``args``."""
    if type(reply) is BatchResult and args:
        frame = _pack_results(reply.results, args[0])
        if frame is not None:
            return "batch", (frame, reply.stats)
    return "ok", reply


def unpack(
    kind: str, payload: object, sensors: Mapping[int, Sensor], args: tuple
) -> object:
    """The reply a ``(kind, payload)`` stands for, given the shard's
    sensor table and the ``args`` the op was sent with."""
    if kind == "batch":
        frame, stats = payload
        return BatchResult(_unpack_results(frame, sensors, args[0]), stats)
    return payload


def _pack_results(results: Sequence[PortalResult], asked: Sequence) -> tuple | None:
    """The columnar frame of ``results`` (aligned with the queries
    ``asked``), or ``None`` when any of them needs plain pickle."""
    if len(asked) != len(results):
        return None
    row_of: dict[int, int] = {}
    claim = row_of.setdefault
    readings: list[Reading] = []
    result_rows = []
    for result, query in zip(results, asked):
        cls = type(result)
        view = result.groups
        if type(view) is not GroupView or len(view.parts) != len(result.answers):
            return None
        answer_rows = []
        for answer, (viewed, _, sketch_centers) in zip(result.answers, view.parts):
            if viewed is not answer:
                return None
            probed, cached = answer.probed_readings, answer.cached_readings
            readings += probed
            readings += cached
            answer_rows.append(
                (
                    # ``len`` is read before ``setdefault`` runs: a new
                    # reading claims the next row, a seen one keeps its.
                    array("I", [claim(id(r), len(row_of)) for r in probed]),
                    array("I", [claim(id(r), len(row_of)) for r in cached]),
                    answer.cached_sketches,
                    answer.cached_sketch_nodes,
                    answer.terminals,
                    _stats_row(answer.stats),
                    sketch_centers,
                )
            )
        result_rows.append(
            (
                cls,
                answer_rows,
                result.processing_seconds,
                result.collection_seconds,
                result.sample_requested,
                tuple([getattr(result, name) for name in _extra_fields(cls)]),
                None if result.query is query else result.query,
            )
        )
    if len(row_of) != len(readings):
        # First-seen order, which is the order rows were claimed in.
        readings = list({id(r): r for r in readings}.values())
    values = [r.value for r in readings]
    if not {float}.issuperset(map(type, values)):
        return None
    # Timestamps and expiries are sums with a ``SimClock`` reading —
    # floats by construction.
    table = (
        array("q", [r.sensor_id for r in readings]),
        array("d", values),
        array("d", [r.timestamp for r in readings]),
        array("d", [r.expires_at for r in readings]),
    )
    return table, result_rows


def _unpack_results(
    frame: tuple, sensors: Mapping[int, Sensor], asked: Sequence
) -> list[PortalResult]:
    table, result_rows = frame
    readings = list(map(Reading, *table))
    sources = (sensors,)
    results = []
    for row, sent in zip(result_rows, asked):
        cls, answer_rows, processing, collection, sample_requested, extras, query = row
        answers = []
        parts = []
        for probed, cached, sketches, nodes, terminals, stats, centers in answer_rows:
            answer = QueryAnswer(
                [readings[i] for i in probed],
                [readings[i] for i in cached],
                sketches,
                nodes,
                terminals,
                QueryStats(*stats),
            )
            answers.append(answer)
            parts.append((answer, sources, centers))
        results.append(
            cls(
                sent if query is None else query,
                GroupView(parts),
                answers,
                processing,
                collection,
                sample_requested,
                *extras,
            )
        )
    return results
