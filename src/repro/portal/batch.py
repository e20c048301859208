"""The portal's query executor: one tick's queries as one unit of work.

Every portal query runs here — ``SensorMapPortal.execute(q)`` is
``execute_batch([q]).results[0]``.  A tick gets the amortization the
paper's portal workload demands (Section II: many users, overlapping
viewports, the same live sensors).  Per sensor-type tree it

1. runs every exact scan through
   :func:`repro.core.shared_scan.shared_range_scan`, classifying each
   distinct region once per batch;
2. coalesces the probe lists — each sensor is contacted **at most once
   per batch tick**, in one network batch per tree, and its reading is
   fanned out to every requesting query; and
3. ingests the probed readings through
   :meth:`repro.core.tree.COLRTree.insert_readings_batch`, so ancestor
   aggregates receive one merged delta per slot instead of one walk per
   reading.

Probe work is attributed to each sensor's *owner* (the first requesting
query); later requesters record ``probes_coalesced``.  A probe round
with one participant is that query's own round, booked by the same
``COLRTree._book_round`` that books a lone ``COLRTree.query``'s:
readings in arrival order and, when the dispatcher streams ingestion,
the streamed maintenance on the query.  A shared round's streamed
maintenance cannot be split by query and is the tick's.  Sampled queries
(layered sampling probes mid-descent through the tree RNG) run alone
after the exact phase, booked into the tick the same way.

A *planned* polygon — an exact genuine polygon the geoblock executor
plans on its cell grid (:func:`repro.geoblocks.executor.plan_query`),
its result a ``PolygonResult`` — is one more exact scan of the tick:
the polygon itself, with per-sensor answers.  Its plan step
(:func:`repro.geoblocks.executor.execute_polygon`) reads the grid in the
partition step, before any of the tick's probes land; the plan's counts
are booked onto its answers with the exact phase's.  A rectangle drawn
as a polygon is its ``Rect`` (:func:`repro.portal.query.normalize_region`).

A singleton batch is bit-identical to one ``COLRTree.query`` per type
tree (same plan-cache interaction, same probe order, hence the same
network RNG draws, same ingestion, same stats):
``tests/property/test_batch_parity.py`` holds it to that loop, kept as
``tests/portal/reference_execute.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.shared_scan import ScanRequest, coalesce_probes, shared_range_scan
# The module, not its functions: the e2e tracer wraps
# ``execute_polygon`` on it, so the name is looked up at call time.
from repro.geoblocks import executor as geoblocks
from repro.portal.grouping import (
    DisplayGroup,
    concat_groups,
    group_answer,
    group_by_terminal,
)
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery, normalize_region

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.lookup import QueryAnswer
    from repro.core.tree import COLRTree
    from repro.geoblocks.planner import CellPlan
    from repro.portal.portal import SensorMapPortal
    from repro.transport.dispatcher import ProbeRound

__all__ = ["BatchResult", "BatchStats", "execute_batch"]


@dataclass
class BatchStats:
    """What one batch tick cost — and what coalescing saved.

    ``probes_requested`` counts probe requests across all queries (what
    sequential execution would have issued from the same cache state);
    ``probes_issued`` is what actually went over the network after
    coalescing; the difference is ``probes_coalesced``.

    ``probes_contacted`` is what actually hit the wire after the
    dispatcher's dedup/cooldown tables (≤ ``probes_issued``), the
    transport counters break the difference down, ``maintenance_ops``
    carries the streamed-ingestion trigger work of shared probe rounds
    (not attributable to one query), and ``collection_seconds`` is the
    tick's *makespan* when rounds overlap, else the sequential per-tree
    sum.

    ``collection_seconds`` is *modeled* (simulated-clock) time;
    ``wall_seconds`` is the real time this process spent executing the
    batch.  Wall time is measurement noise, not an answer property, so
    it is excluded from equality — parity tests compare everything
    else bit-for-bit across executors and federation backends.
    """

    queries: int = 0
    probes_requested: int = 0
    probes_issued: int = 0
    probes_contacted: int = 0
    probes_coalesced: int = 0
    probes_deduped: int = 0
    probes_cooldown_skipped: int = 0
    probes_retried: int = 0
    probes_timed_out: int = 0
    batch_shared_plans: int = 0
    maintenance_ops: int = 0
    collection_seconds: float = 0.0
    wall_seconds: float = field(default=0.0, compare=False)


@dataclass
class BatchResult:
    """Per-query results (aligned with the submitted queries) plus the
    batch-level accounting."""

    results: list[PortalResult] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)


def _tally(owner: dict[int, int], n: int, sensor_ids) -> list[int]:
    """How many of ``sensor_ids`` each of a round's ``n`` participants
    owns."""
    counts = [0] * n
    for sensor_id in sensor_ids:
        counts[owner[sensor_id]] += 1
    return counts


def _share_round(
    tree: "COLRTree",
    scans: list,
    union: list[int],
    owner: dict[int, int],
    rnd: "ProbeRound",
    now: float,
    stats: BatchStats,
    io_base: tuple[int, int, int, int] | None,
) -> tuple[int, int, int, int] | None:
    """Attribute a probe round several queries shared: each sensor's
    probe, outcome and ingestion to its owner, its reading to every
    requester.  Streamed maintenance cannot be split by query and is the
    tick's.  Returns the storage counters the next charge starts from."""
    n = len(scans)
    readings = rnd.readings
    owned = _tally(owner, n, union)
    successes = _tally(owner, n, readings)
    deduped = _tally(owner, n, rnd.deduped)
    cooldown = _tally(owner, n, rnd.cooldown_skipped)
    timed = _tally(owner, n, rnd.timed_out)
    retried = [0] * n
    for sid, count in rnd.retries_by_sensor.items():
        retried[owner[sid]] += count
    streaming = tree.transport.streams_ingestion
    if streaming:
        stats.maintenance_ops += rnd.maintenance_ops
    else:
        # What each owner ingests: its probed readings, less those the
        # dispatcher served from its tables.
        served = rnd.deduped_set
        fresh: list[list] = [[] for _ in range(n)]
        for sid in union:
            reading = readings.get(sid)
            if reading is not None and sid not in served:
                fresh[owner[sid]].append(reading)
    for local, (answer, to_probe) in enumerate(scans):
        if not to_probe:
            continue
        qstats = answer.stats
        stats.probes_requested += len(to_probe)
        coalesced = len(to_probe) - owned[local]
        stats.probes_coalesced += coalesced
        qstats.probes_coalesced += coalesced
        qstats.sensors_probed += owned[local]
        qstats.probe_successes += successes[local]
        qstats.probes_deduped += deduped[local]
        qstats.probes_cooldown_skipped += cooldown[local]
        qstats.probes_timed_out += timed[local]
        qstats.probes_retried += retried[local]
        # The per-query view of the shared network batch: each
        # participant waited out the one collection round.
        qstats.probe_batches += 1
        qstats.collection_latency_seconds += rnd.latency_seconds
        answer.probed_readings.extend(
            readings[sid] for sid in to_probe if sid in readings
        )
        if owned[local]:
            if not streaming and fresh[local]:
                qstats.maintenance_ops += tree.insert_readings_batch(
                    fresh[local], fetched_at=now
                )
            # The I/O since the last charge is this query's own ingestion
            # — or, for the first owner after a streamed drain, what the
            # drain journaled for the whole tick.
            io_base = tree._meter_storage(qstats, io_base)
    return io_base


def execute_batch(
    portal: "SensorMapPortal", queries: Sequence[SensorQuery]
) -> BatchResult:
    """Execute a set of queries as one batch tick.

    Implementation of :meth:`SensorMapPortal.execute_batch`; see the
    module docstring for the phase structure.
    """
    wall_start = time.perf_counter()
    stats = BatchStats(queries=len(queries))
    if not queries:
        return BatchResult(stats=stats)
    portal._ensure_index()
    now = portal.clock.now()
    queries = list(map(normalize_region, queries))

    # Resolve every query's trees and sample size up front, surfacing
    # unknown-type errors before any work.
    resolved = list(map(portal._resolve, queries))

    # Partition: exact scans batch per tree — a planned polygon's too,
    # over the polygon itself; sampled queries run alone, in query order
    # (their probes happen mid-traversal, RNG-driven).  A planned
    # polygon's plan step reads the grid here, before any of the tick's
    # probes land in the slot caches.
    sampling_on = portal.config.sampling_enabled
    exact_by_tree: dict["COLRTree", list[int]] = {}
    sampled: list[int] = []
    plans: dict[int, "CellPlan"] = {}
    cells: dict[int, list[int]] = {}
    unserved: dict[int, set[int]] = {}
    for qi, (trees, sample_size) in enumerate(resolved):
        if sampling_on and sample_size > 0:
            sampled.append(qi)
            continue
        if (plan := geoblocks.plan_query(portal, queries[qi])) is not None:
            plans[qi] = plan
            cells[qi], unserved[qi] = geoblocks.execute_polygon(
                portal, queries[qi], plan, trees, now
            )
        for tree in trees.values():
            exact_by_tree.setdefault(tree, []).append(qi)

    # Answers keyed by (query index, tree) so assembly below can emit
    # them in each query's own tree order.
    answers: dict[tuple[int, "COLRTree"], "QueryAnswer"] = {}

    # A tick's trees form one group: their rounds are submitted, then
    # drained together, which is what lets them overlap in simulated
    # wall time.  A lone query's trees are one group each (``zip`` makes
    # the one-tree groups): its type trees are collected one after
    # another, each round drained and booked before the next tree is
    # scanned, so its collection is the sum its answer reports and its
    # draws match one ``COLRTree.query`` per tree.
    dispatcher = portal._dispatcher
    work = list(exact_by_tree.items())
    for group in [work] if len(queries) > 1 else zip(work):
        # Pass 1 — per tree: prune, classify (shared scans), coalesce, and
        # *submit* the probe round.
        submitted = []
        rounds = []
        for tree, query_indices in group:
            tree._prune_expired(now)
            scans = shared_range_scan(
                tree,
                [
                    ScanRequest(
                        queries[qi].region,
                        queries[qi].staleness_seconds,
                        aggregate_termination=qi not in plans,
                    )
                    for qi in query_indices
                ],
                now,
            )
            if len(scans) == 1:
                # One participant owns its whole probe list, in order.
                union, owner = scans[0][1], None
            else:
                union, owner = coalesce_probes([to_probe for _, to_probe in scans])
            stats.probes_issued += len(union)
            rnd = None
            if union:
                staleness = min(queries[qi].staleness_seconds for qi in query_indices)
                rnd = dispatcher.submit(union, now, tree=tree, max_staleness=staleness)
                rounds.append(rnd)
            submitted.append((tree, query_indices, scans, union, owner, rnd))

        # Pass 2 — drain the group's rounds to resolution (in overlap mode
        # they share the connection pool and event queue; otherwise they
        # resolve one at a time in submission order).
        # Storage I/O is metered from here on: streamed ingestion journals
        # during the drain, the explicit ingestion of pass 3 as it runs.
        io_base = None
        if rounds:
            if portal.storage is not None:
                io_base = portal.storage.stats.io_counters()
            dispatcher.drain(rounds)

        # Pass 3 — per-query attribution.
        latencies: list[float] = []
        for tree, query_indices, scans, union, owner, rnd in submitted:
            if rnd is not None:  # else no scan has anything to probe
                latencies.append(rnd.latency_seconds)
                stats.probes_contacted += len(rnd.contacted)
                stats.probes_deduped += len(rnd.deduped)
                stats.probes_cooldown_skipped += len(rnd.cooldown_skipped)
                stats.probes_retried += rnd.retries
                stats.probes_timed_out += len(rnd.timed_out)
            if len(scans) == 1:
                # One participant: the round is that query's own, booked
                # as a lone query's probe round is.
                answer, to_probe = scans[0]
                stats.probes_requested += len(to_probe)
                if rnd is not None:
                    answer.probed_readings.extend(
                        tree._book_round(rnd, len(to_probe), now, answer.stats, io_base)
                    )
                    io_base = tree._storage_io()
            elif rnd is not None:
                io_base = _share_round(
                    tree, scans, union, owner, rnd, now, stats, io_base
                )
            for local, (qi, (answer, to_probe)) in enumerate(
                zip(query_indices, scans)
            ):
                if answer.stats.batch_shared_nodes:
                    stats.batch_shared_plans += 1
                tree.stats.record(answer.stats)
                answers[qi, tree] = answer
                if qi in plans:
                    # The plan's cells, booked on the planned answer, and
                    # its interior probes: the ones this query owns.
                    answer.stats.polygon_cells_interior += len(plans[qi].interior)
                    answer.stats.polygon_cells_boundary += len(plans[qi].boundary)
                    ids = unserved[qi]
                    cells[qi][3] += sum(
                        1
                        for s in to_probe
                        if s in ids and (owner is None or owner[s] == local)
                    )

        # Collection accounting: sequential rounds sum; overlapping
        # rounds cost their makespan.
        if dispatcher.config.overlap_enabled:
            stats.collection_seconds += max(latencies, default=0.0)
        else:
            stats.collection_seconds += sum(latencies)

    # Sampled queries run one after another once the exact phase is done:
    # the tick books their probes and adds their collection.  Their
    # maintenance stays theirs (it is in their processing seconds).
    for qi in sampled:
        query = queries[qi]
        trees, sample_size = resolved[qi]
        for tree in trees.values():
            answer = answers[qi, tree] = tree.query(
                query.region,
                now=now,
                max_staleness=query.staleness_seconds,
                sample_size=sample_size,
                terminal_level=query.zoom_level,
            )
            s = answer.stats
            stats.probes_requested += s.sensors_probed
            stats.probes_issued += s.sensors_probed
            stats.probes_contacted += (
                s.sensors_probed - s.probes_deduped - s.probes_cooldown_skipped
            )
            stats.probes_deduped += s.probes_deduped
            stats.probes_cooldown_skipped += s.probes_cooldown_skipped
            stats.probes_retried += s.probes_retried
            stats.probes_timed_out += s.probes_timed_out
            stats.collection_seconds += s.collection_latency_seconds

    results: list[PortalResult] = []
    cost_model = portal.cost_model
    for qi, query in enumerate(queries):
        trees, sample_size = resolved[qi]
        query_answers: list["QueryAnswer"] = []
        groups: list[Sequence[DisplayGroup]] = []
        processing = 0.0
        collection = 0.0
        for tree in trees.values():
            answer = answers[qi, tree]
            query_answers.append(answer)
            processing += cost_model.processing_seconds(answer.stats)
            collection += answer.stats.collection_latency_seconds
            if query.zoom_level is not None:
                groups.append(group_by_terminal(answer, tree, query.zoom_level))
            else:
                groups.append(group_answer(answer, query.cluster_miles, tree=tree))
        extras = cells.get(qi, ())
        cls = geoblocks.PolygonResult if extras else PortalResult
        results.append(
            cls(
                query,
                concat_groups(groups),
                query_answers,
                processing,
                collection,
                sample_size * len(trees) if sample_size and sampling_on else None,
                *extras,
            )
        )
    stats.wall_seconds = time.perf_counter() - wall_start
    return BatchResult(results=results, stats=stats)
