"""The batch query executor: one tick's queries as one unit of work.

``execute_batch`` gives a set of in-flight queries the amortization the
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
query); later requesters record ``probes_coalesced``.  Sampled queries
cannot share traversals (layered sampling probes mid-descent through
the tree RNG), so they execute sequentially after the exact phase.

A singleton batch is bit-identical to ``SensorMapPortal.execute``: same
plan-cache interaction, same probe order (hence the same network RNG
draws), same ingestion, same stats.  The property tests in
``tests/property/test_batch_parity.py`` enforce this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.shared_scan import ScanRequest, coalesce_probes, shared_range_scan
from repro.portal.grouping import (
    DisplayGroup,
    concat_groups,
    group_answer,
    group_by_terminal,
)
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.lookup import QueryAnswer
    from repro.core.tree import COLRTree
    from repro.portal.portal import SensorMapPortal
    from repro.sensors.sensor import Reading

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
    carries the streamed-ingestion trigger work (not attributed to
    individual queries), and ``collection_seconds`` is the tick's
    *makespan* when rounds overlap, else the sequential per-tree sum.

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

    # Resolve each query's trees and effective sample size exactly as
    # execute() would, surfacing unknown-type errors before any work.
    per_query_trees: list[list["COLRTree"]] = []
    per_query_sample: list[int] = []
    for query in queries:
        if query.sensor_type is not None:
            if query.sensor_type not in portal._trees:
                raise KeyError(f"no sensors of type {query.sensor_type!r} registered")
            trees = [portal._trees[query.sensor_type]]
        else:
            trees = list(portal._trees.values())
        per_query_trees.append(trees)
        per_query_sample.append(
            portal._effective_sample_size(query.sample_size, len(trees))
        )

    # Partition (query, tree) pairs: exact scans batch per tree; sampled
    # ones run alone (their probes happen mid-traversal, RNG-driven).
    sampling_on = portal.config.sampling_enabled
    exact_by_tree: dict[int, tuple["COLRTree", list[int]]] = {}
    sampled_pairs: list[tuple[int, "COLRTree"]] = []
    for qi, trees in enumerate(per_query_trees):
        sampled = sampling_on and per_query_sample[qi] > 0
        for tree in trees:
            if sampled:
                sampled_pairs.append((qi, tree))
            else:
                exact_by_tree.setdefault(id(tree), (tree, []))[1].append(qi)

    # Answers keyed by (query index, tree identity) so assembly below
    # can emit them in each query's own tree order.
    answers: list[dict[int, "QueryAnswer"]] = [{} for _ in queries]

    # Pass 1 — per tree: prune, classify (shared scans), coalesce, and
    # *submit* the probe round; all trees' rounds are drained together
    # below, which is what lets them overlap in simulated wall time.
    dispatcher = portal.dispatcher
    tree_work: list[tuple] = []
    for tree, query_indices in exact_by_tree.values():
        tree._prune_expired(now)
        scans = shared_range_scan(
            tree,
            [
                ScanRequest(queries[qi].region, queries[qi].staleness_seconds)
                for qi in query_indices
            ],
            now,
        )
        union, owner = coalesce_probes([to_probe for _, to_probe in scans])
        stats.probes_issued += len(union)
        rnd = None
        if union:
            staleness = min(queries[qi].staleness_seconds for qi in query_indices)
            rnd = dispatcher.submit(union, now, tree=tree, max_staleness=staleness)
        tree_work.append((tree, query_indices, scans, union, owner, rnd))

    # Pass 2 — drain every submitted round to resolution (in overlap
    # mode the rounds share the connection pool and event queue;
    # otherwise they resolve one at a time in submission order).
    # Storage I/O is metered from here on: streamed ingestion journals
    # during the drain, the explicit ingestion of pass 3 as it runs.
    io_base = (
        portal.storage.stats.io_counters() if portal.storage is not None else None
    )
    dispatcher.drain([w[5] for w in tree_work if w[5] is not None])

    # Pass 3 — per-query attribution, identical to the sequential
    # executor's accounting.
    streaming = dispatcher.streams_ingestion
    round_latencies: list[float] = []
    for tree, query_indices, scans, union, owner, rnd in tree_work:
        readings: Mapping[int, "Reading"] = {}
        latency = 0.0
        deduped_set: frozenset[int] = frozenset()
        cooldown_set: frozenset[int] = frozenset()
        timed_set: frozenset[int] = frozenset()
        retries_by_sensor: dict[int, int] = {}
        if rnd is not None:
            readings = rnd.readings
            latency = rnd.latency_seconds
            deduped_set = rnd.deduped_set
            cooldown_set = rnd.cooldown_set
            timed_set = frozenset(rnd.timed_out)
            retries_by_sensor = rnd.retries_by_sensor
            stats.probes_contacted += len(rnd.contacted)
            stats.probes_deduped += len(rnd.deduped)
            stats.probes_cooldown_skipped += len(rnd.cooldown_skipped)
            stats.probes_retried += rnd.retries
            stats.probes_timed_out += len(rnd.timed_out)
            stats.maintenance_ops += rnd.maintenance_ops
            round_latencies.append(latency)
        for local, (qi, (answer, to_probe)) in enumerate(zip(query_indices, scans)):
            qstats = answer.stats
            if qstats.batch_shared_nodes:
                stats.batch_shared_plans += 1
            stats.probes_requested += len(to_probe)
            owned = [sid for sid in to_probe if owner[sid] == local]
            coalesced = len(to_probe) - len(owned)
            qstats.sensors_probed += len(owned)
            qstats.probe_successes += sum(1 for sid in owned if sid in readings)
            qstats.probes_coalesced += coalesced
            stats.probes_coalesced += coalesced
            if rnd is not None and owned:
                qstats.probes_deduped += sum(1 for sid in owned if sid in deduped_set)
                qstats.probes_cooldown_skipped += sum(
                    1 for sid in owned if sid in cooldown_set
                )
                qstats.probes_timed_out += sum(1 for sid in owned if sid in timed_set)
                qstats.probes_retried += sum(
                    retries_by_sensor.get(sid, 0) for sid in owned
                )
            if to_probe:
                # The per-query view of the shared network batch: each
                # participant waited out the one collection round.
                qstats.probe_batches += 1
                qstats.collection_latency_seconds += latency
            answer.probed_readings.extend(
                readings[sid] for sid in to_probe if sid in readings
            )
            if not streaming:
                owned_readings = [
                    readings[sid]
                    for sid in owned
                    if sid in readings and sid not in deduped_set
                ]
                if owned_readings:
                    qstats.maintenance_ops += tree.insert_readings_batch(
                        owned_readings, fetched_at=now
                    )
            if owned:
                # The I/O since the last charge is this query's own
                # ingestion — or, for the first owner after a streamed
                # drain, what the drain journaled for the whole tick.
                io_base = tree._meter_storage(qstats, io_base)
            tree.stats.record(qstats)
            answers[qi][id(tree)] = answer
        if coalesced_total := sum(
            len(to_probe) for _, to_probe in scans
        ) - len(union):
            tree.network.record_coalesced(coalesced_total)

    # Collection accounting: sequential rounds sum; overlapping rounds
    # cost the tick their makespan.
    if dispatcher.config.overlap_enabled:
        stats.collection_seconds += max(round_latencies, default=0.0)
    else:
        stats.collection_seconds += sum(round_latencies)

    for qi, tree in sampled_pairs:
        query = queries[qi]
        answers[qi][id(tree)] = tree.query(
            query.region,
            now=now,
            max_staleness=query.staleness_seconds,
            sample_size=per_query_sample[qi],
            terminal_level=query.zoom_level,
        )

    results: list[PortalResult] = []
    for qi, query in enumerate(queries):
        query_answers: list["QueryAnswer"] = []
        groups: list[Sequence[DisplayGroup]] = []
        processing = 0.0
        collection = 0.0
        for tree in per_query_trees[qi]:
            answer = answers[qi][id(tree)]
            query_answers.append(answer)
            processing += portal.cost_model.processing_seconds(answer.stats)
            collection += answer.stats.collection_latency_seconds
            if query.zoom_level is not None:
                groups.append(group_by_terminal(answer, tree, query.zoom_level))
            else:
                groups.append(group_answer(answer, query.cluster_miles, tree=tree))
        results.append(
            PortalResult(
                query=query,
                groups=concat_groups(groups),
                answers=query_answers,
                processing_seconds=processing,
                collection_seconds=collection,
                sample_requested=(
                    per_query_sample[qi] * len(per_query_trees[qi])
                    if per_query_sample[qi] and sampling_on
                    else None
                ),
            )
        )
    stats.wall_seconds = time.perf_counter() - wall_start
    return BatchResult(results=results, stats=stats)
