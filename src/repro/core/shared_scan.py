"""Shared-traversal primitives for the batch query executor.

A portal tick carries many concurrent viewport queries against the same
tree (Section II's workload).  Executing them one by one repeats two
kinds of work that are identical across queries:

* the **spatial classification** — queries over the same viewport (the
  common case: many users watching the same hotspot) classify the same
  nodes against the same region; and
* the **sensor probes** — overlapping viewports request the same live
  sensors, and a sensor's reading at one instant is the same no matter
  which query asked for it.

This module provides the per-tree batch primitives the executor
(:mod:`repro.portal.batch`) composes:

:func:`shared_range_scan`
    runs every exact scan of a batch over one tree — viewports and
    geoblock-planned polygons alike — resolving each region's spatial
    plan at most once *per batch* and metering reuse in
    ``QueryStats.batch_shared_nodes``.

:func:`coalesce_probes`
    merges the per-query probe lists into one deduplicated union in
    first-request order, assigning each sensor an *owner* — the first
    query that asked — so probe work and cache-maintenance ops are
    attributed exactly once.

The first scan of each distinct region goes through
``tree.spatial_plan`` unchanged (same plan-cache hits/misses, same
counters), which keeps a singleton batch bit-identical to the
sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.lookup import QueryAnswer, Region, scan_with_plan
from repro.core.plancache import SpatialPlan, region_fingerprint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.tree import COLRTree

__all__ = ["ScanRequest", "coalesce_probes", "shared_range_scan"]


@dataclass(frozen=True, slots=True)
class ScanRequest:
    """One exact scan of a batch: a region plus its freshness bound.

    (``now`` is shared by the whole batch — a tick reads the clock
    once — so it is a :func:`shared_range_scan` argument, not a field.)
    ``aggregate_termination=False`` keeps the answer per sensor (no
    node-level sketch), as a geoblock-planned polygon's answer is.
    """

    region: Region
    max_staleness: float
    aggregate_termination: bool = True


def shared_range_scan(
    tree: "COLRTree",
    requests: Sequence[ScanRequest],
    now: float,
) -> list[tuple[QueryAnswer, list[int]]]:
    """Run every request's traversal over one tree, sharing spatial
    plans within the batch.

    Returns one ``(answer, to_probe)`` pair per request, in request
    order — exactly what :func:`repro.core.lookup.range_scan` returns
    for each, except that a repeated region classifies nodes only once:
    later requests inherit the first request's plan and record
    ``batch_shared_nodes`` (the classifications they skipped) instead
    of a plan-cache hit.  First use of each region goes through
    ``tree.spatial_plan`` unchanged, so a batch of distinct regions is
    indistinguishable from sequential scans.
    """
    batch_plans: dict[object, SpatialPlan] = {}
    shared = len(requests) > 1  # a lone request has no peer to share with
    out: list[tuple[QueryAnswer, list[int]]] = []
    for request in requests:
        answer = QueryAnswer()
        key = region_fingerprint(request.region) if shared else None
        plan = batch_plans.get(key) if key is not None else None
        if plan is not None:
            # Inherited classification: meter what was skipped.  The
            # global plan cache is deliberately not consulted (nor
            # credited) — this hit exists only within the batch.
            answer.stats.batch_shared_nodes += tree.kernel.n_nodes
        else:
            plan = tree.spatial_plan(request.region, answer.stats)
            if key is not None:
                batch_plans[key] = plan
        out.append(
            scan_with_plan(
                tree, request.region, now, request.max_staleness, plan, answer,
                aggregate_termination=request.aggregate_termination,
            )
        )
    return out


def coalesce_probes(
    probe_lists: Sequence[Sequence[int]],
) -> tuple[list[int], dict[int, int]]:
    """Merge per-query probe lists into one deduplicated union.

    Returns ``(union, owner)``: ``union`` preserves first-request order
    (so a singleton batch probes in exactly the sequential order, and
    the network RNG draws line up), and ``owner[sensor_id]`` is the
    index of the first request that asked for the sensor.  The owner is
    charged the probe (``sensors_probed``/``probe_successes``) and the
    resulting cache maintenance; every later requester records the
    saved request as ``probes_coalesced`` and still receives the
    reading.
    """
    union: list[int] = []
    owner: dict[int, int] = {}
    for index, ids in enumerate(probe_lists):
        for sensor_id in ids:
            if sensor_id not in owner:
                owner[sensor_id] = index
                union.append(sensor_id)
    return union, owner
