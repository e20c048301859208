"""Layered sampling — Algorithm 1 and Algorithm 2 of the paper.

The one-pass sampling range lookup splits a user target sample size
``R`` down the tree: each relevant child receives a share proportional
to ``w_i * Overlap(BB(i), A)``.  Paths terminate in a *probe* at the
first node below the terminal threshold ``T`` whose bounding box lies
entirely inside the query region; before probing, the target is reduced
by the cached sensors available at the node (``|c_i|``) and scaled up by
``1/a_i`` (historical availability) to compensate for unavailable
sensors.  The scale-up happens exactly once per root-to-probe path: at
the probe point, or at level ``O`` for paths still descending — we carry
an explicit ``scaled`` flag per queue entry, which realizes the paper's
"exactly once" invariant without its level-comparison corner cases.

Shortfalls (``totalFetched < r``) are compensated by ``REDISTRIBUTE``:
the missing mass is spread over the nodes still queued, proportionally
to their current targets (Algorithm 2's intent).

Fractional targets are resolved with randomized rounding
(``floor(x) + Bernoulli(frac(x))``), which preserves the expected-size
invariant of Theorem 1 exactly.

The spatial inputs of the algorithm — per-child overlap fractions, the
containment tests, and each terminal leaf's in-region sensor pool —
come from one vectorized classification of the flattened kernel
(:mod:`repro.core.flat`), memoized in the spatial plan cache, instead
of per-node geometry calls.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.flat import CONTAINED, DISJOINT
from repro.core.lookup import QueryAnswer, Region, TerminalRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.flat import FlatKernel
    from repro.core.node import COLRNode
    from repro.core.plancache import SpatialPlan
    from repro.core.tree import COLRTree


@dataclass
class _Entry:
    """A queued (target size, node) pair; ``scaled`` marks whether the
    1/a oversampling factor has been applied on this path (the node is
    in the proof's class S).  ``idx`` is the node's flattened-kernel
    index."""

    priority: float
    node: "COLRNode"
    scaled: bool
    idx: int


class _TargetQueue:
    """Max-priority queue over :class:`_Entry` supporting proportional
    redistribution over every live entry (Algorithm 2)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, _Entry]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: _Entry) -> None:
        heapq.heappush(self._heap, (-entry.priority, self._seq, entry))
        self._seq += 1

    def pop(self) -> _Entry:
        _, _, entry = heapq.heappop(self._heap)
        return entry

    def redistribute(self, shortfall: float) -> None:
        """Add ``shortfall`` across queued entries proportionally to
        their current targets, then restore the heap order."""
        if shortfall <= 0 or not self._heap:
            return
        total = sum(entry.priority for _, _, entry in self._heap)
        if total <= 0:
            return
        rebuilt: list[tuple[float, int, _Entry]] = []
        for _, seq, entry in self._heap:
            entry.priority += shortfall * entry.priority / total
            rebuilt.append((-entry.priority, seq, entry))
        heapq.heapify(rebuilt)
        self._heap = rebuilt


def layered_sample(
    tree: "COLRTree",
    region: Region,
    now: float,
    max_staleness: float,
    target_size: float,
    terminal_level: int | None = None,
) -> QueryAnswer:
    """Run Algorithm 1 against a built tree and return the sample.

    The returned :class:`QueryAnswer` holds the successfully probed
    readings plus every cached reading / aggregate folded in along the
    way, with per-terminal records for the Figure 6 metrics.

    ``terminal_level`` overrides the config's threshold ``T`` for this
    query — the paper adjusts it with the map's zoom level, producing
    one sample (or aggregate) per node at that level.
    """
    answer = QueryAnswer()
    if target_size <= 0:
        return answer
    config = tree.config
    t_level = terminal_level if terminal_level is not None else config.terminal_level
    if t_level < 0:
        raise ValueError("terminal_level must be non-negative")
    # The oversampling level must stay at or below the terminal level so
    # the 1/a factor is applied exactly once per path.
    o_level = max(config.oversample_level, t_level)
    plan = tree.spatial_plan(region, answer.stats)
    kernel = tree.kernel
    labels = plan.labels
    queue = _TargetQueue()
    queue.push(_Entry(priority=float(target_size), node=tree.root, scaled=False, idx=0))
    rng = tree.rng

    while len(queue) > 0:
        entry = queue.pop()
        node = entry.node
        r = entry.priority
        answer.stats.nodes_traversed += 1
        if r <= 0:
            continue
        if node.is_leaf:
            fetched = _probe_node(
                tree, node, region, now, max_staleness, r, entry.scaled, answer, rng,
                kernel, plan, entry.idx,
            )
            if fetched < r and config.redistribution_enabled:
                queue.redistribute(r - fetched)
            continue

        shares = _child_shares(node, region, kernel, plan, entry.idx)
        if not shares:
            if config.redistribution_enabled:
                queue.redistribute(r)
            continue
        total_fetched = 0.0
        for child, share, child_idx in shares:
            answer.stats.nodes_traversed += 1
            r_i = r * share
            inside = labels[child_idx] == CONTAINED
            if inside and node.level > t_level:
                total_fetched += _probe_node(
                    tree, child, region, now, max_staleness, r_i, entry.scaled, answer,
                    rng, kernel, plan, child_idx,
                )
            else:
                child_scaled = entry.scaled
                if (
                    not child_scaled
                    and config.oversampling_enabled
                    and node.level >= o_level
                ):
                    r_i = r_i / tree.node_availability(child, now)
                    child_scaled = True
                if inside and config.caching_enabled:
                    # Cache-sufficiency check of the sensor-selection
                    # access method (Section VI-A): a fully-inside child
                    # whose usable cached weight covers its share is
                    # served from cache instead of descending.
                    answer.stats.cached_nodes_accessed += 1
                    cached_weight = child.cached_weight(now, max_staleness)
                    if cached_weight >= r_i and (
                        child.is_leaf or config.aggregate_caching_enabled
                    ):
                        served, _ = _collect_cached(
                            tree, child, region, now, max_staleness, answer, target=r_i
                        )
                        answer.terminals.append(
                            TerminalRecord(
                                node_id=child.node_id,
                                level=child.level,
                                target=max(0.0, r_i),
                                results=served,
                                used_cache=True,
                            )
                        )
                        total_fetched += served
                        continue
                if r_i < 1.0:
                    # A vanishing target does not justify a subtree
                    # descent: push a unit target with probability r_i.
                    # Expectation is preserved by construction, so the
                    # parent's budget is credited r_i either way —
                    # redistribution must only compensate *genuine*
                    # shortfalls (holes, failures), not rounding noise,
                    # which would otherwise rectify into inflation.
                    total_fetched += r_i
                    if rng.random() < r_i:
                        queue.push(
                            _Entry(
                                priority=1.0, node=child, scaled=child_scaled,
                                idx=child_idx,
                            )
                        )
                    continue
                total_fetched += r_i
                queue.push(
                    _Entry(
                        priority=r_i, node=child, scaled=child_scaled, idx=child_idx
                    )
                )
        if total_fetched < r and config.redistribution_enabled:
            queue.redistribute(r - total_fetched)
    return answer


def _child_shares(
    node: "COLRNode",
    region: Region,
    kernel: "FlatKernel",
    plan: "SpatialPlan",
    idx: int,
) -> list[tuple["COLRNode", float, int]]:
    """Overlap-weighted share of the parent's target for each relevant
    child (line 9 / 17 of Algorithm 1), as ``(child, share, child_idx)``
    tuples.

    Overlap fractions come from one memoized vectorized pass and the
    relevance test reads the classification labels.
    """
    weighted: list[tuple["COLRNode", float, int]] = []
    total = 0.0
    overlaps = plan.overlaps(kernel, region)
    labels = plan.labels
    start = kernel._child_start_list[idx]
    for offset, child in enumerate(node.children):
        child_idx = start + offset
        overlap = overlaps.get(child_idx, 0.0)
        if overlap <= 0.0 and labels[child_idx] == DISJOINT:
            continue
        # A degenerate overlap fraction of 0 on a touching box still
        # deserves a vanishing share so redistribution can reach it.
        w = child.weight * max(overlap, 1e-12)
        weighted.append((child, w, child_idx))
        total += w
    if total <= 0.0:
        return []
    return [(child, w / total, child_idx) for child, w, child_idx in weighted]


def _probe_node(
    tree: "COLRTree",
    node: "COLRNode",
    region: Region,
    now: float,
    max_staleness: float,
    r_i: float,
    scaled: bool,
    answer: QueryAnswer,
    rng: np.random.Generator,
    kernel: "FlatKernel",
    plan: "SpatialPlan",
    idx: int,
) -> float:
    """Terminal handling: use the node's cache, then probe randomly
    chosen descendant sensors to make up the remaining target.

    Returns the *fetched* amount credited against the parent's target
    (cached weight plus probes attempted), matching the pseudocode's
    ``totalFetched`` accounting.
    """
    config = tree.config
    target = max(0.0, r_i)
    cached_weight = 0
    cached_ids: set[int] = set()
    if config.caching_enabled:
        cached_weight, cached_ids = _collect_cached(
            tree, node, region, now, max_staleness, answer, target=target
        )
    need = target - cached_weight
    if not scaled and config.oversampling_enabled and need > 0:
        need = need / tree.node_availability(node, now)
    k = _randomized_round(max(0.0, need), rng)
    probed_ids = _choose_sensors(node, region, cached_ids, k, rng, kernel, plan, idx)
    if probed_ids:
        readings = tree.probe_and_cache(
            probed_ids, now, answer.stats, max_staleness=max_staleness
        )
        answer.probed_readings.extend(readings)
    answer.terminals.append(
        TerminalRecord(
            node_id=node.node_id,
            level=node.level,
            target=target,
            results=cached_weight if cached_weight > 0 else len(probed_ids),
            used_cache=cached_weight > 0,
        )
    )
    # Both cache hits and probes count toward the parent's target.  When
    # the sensor pool covered the rounded request, credit the un-rounded
    # expectation so one-sided redistribution is not triggered by
    # rounding noise; only genuine shortfalls (thin subtrees, spatial
    # holes) leave a gap to redistribute.
    if len(probed_ids) < k:
        # Pool exhausted: a genuine shortfall, credited at face value.
        # Surfaced on the stats so the portal (and above it the
        # federation coordinator) can tell "this shard has no more
        # sensors to give" apart from transient probe failures.
        answer.stats.pool_exhausted_terminals += 1
        return float(cached_weight + len(probed_ids))
    return float(cached_weight) + max(0.0, need)


def _collect_cached(
    tree: "COLRTree",
    node: "COLRNode",
    region: Region,
    now: float,
    max_staleness: float,
    answer: QueryAnswer,
    target: float | None = None,
) -> tuple[int, set[int]]:
    """Fold the node's usable cached data into the answer.

    Internal nodes contribute aggregate sketches (their membership is
    opaque, which is the source of Figure 6's cache-induced bias); leaves
    contribute raw readings whose sensors are then excluded from
    probing.

    With ``reversible_aggregates`` enabled and a finite ``target``, an
    aggregate that over-delivers is decomposed into the descendants'
    cached components and only ~``target`` worth of them is consumed —
    the paper's suggested "reversible aggregation materialization".
    """
    if (
        target is not None
        and tree.config.reversible_aggregates
        and not node.is_leaf
        and tree.config.aggregate_caching_enabled
        and node.agg_cache is not None
        and node.agg_cache.usable_weight(now, max_staleness) > max(1.0, target)
    ):
        consumed, ids = _decompose_cached(
            tree, node, region, now, max_staleness, max(0.0, target), answer
        )
        return consumed, ids
    if node.is_leaf:
        if node.leaf_cache is None:
            return 0, set()
        answer.stats.cached_nodes_accessed += 1
        answer.stats.readings_scanned += len(node.leaf_cache)
        fresh = [
            r
            for r in node.leaf_cache.fresh_readings(now, max_staleness)
            if region.contains_point(tree.sensor(r.sensor_id).location)
        ]
        if not fresh:
            return 0, set()
        answer.cached_readings.extend(fresh)
        return len(fresh), {r.sensor_id for r in fresh}
    if node.agg_cache is None or not tree.config.aggregate_caching_enabled:
        return 0, set()
    answer.stats.cached_nodes_accessed += 1
    sketches = node.agg_cache.usable_sketches(now, max_staleness)
    if not sketches:
        return 0, set()
    answer.cached_sketches.extend(s.copy() for s in sketches)
    answer.cached_sketch_nodes.extend(node.node_id for _ in sketches)
    answer.stats.slots_combined += len(sketches)
    return sum(s.count for s in sketches), set()


def _decompose_cached(
    tree: "COLRTree",
    node: "COLRNode",
    region: Region,
    now: float,
    max_staleness: float,
    target: float,
    answer: QueryAnswer,
) -> tuple[int, set[int]]:
    """Greedily consume ~``target`` worth of cached data from a subtree.

    Children whose whole cached weight fits the remaining budget are
    consumed as intact aggregates (cheap); the first child that would
    overshoot is recursed into; at leaves an exact subset of fresh
    readings closes the gap.  Returns the consumed weight and the leaf
    sensor ids it covers.
    """
    if node.is_leaf:
        if node.leaf_cache is None:
            return 0, set()
        answer.stats.cached_nodes_accessed += 1
        answer.stats.readings_scanned += len(node.leaf_cache)
        fresh = [
            r
            for r in node.leaf_cache.fresh_readings(now, max_staleness)
            if region.contains_point(tree.sensor(r.sensor_id).location)
        ]
        take = min(len(fresh), int(math.ceil(target)))
        chosen = fresh[:take]
        answer.cached_readings.extend(chosen)
        return len(chosen), {r.sensor_id for r in chosen}
    answer.stats.cached_nodes_accessed += 1
    consumed = 0
    ids: set[int] = set()
    remaining = target
    # Visit heavier children first so most of the budget is served by
    # intact (cheap) aggregates and only one child is decomposed.
    children = sorted(
        node.children,
        key=lambda c: c.cached_weight(now, max_staleness),
        reverse=True,
    )
    for child in children:
        if remaining <= 0:
            break
        weight = child.cached_weight(now, max_staleness)
        if weight == 0:
            continue
        if weight <= remaining:
            got, child_ids = _collect_cached(
                tree, child, region, now, max_staleness, answer, target=None
            )
            consumed += got
            ids |= child_ids
            remaining -= got
        else:
            got, child_ids = _decompose_cached(
                tree, child, region, now, max_staleness, remaining, answer
            )
            consumed += got
            ids |= child_ids
            remaining -= got
    return consumed, ids


def _choose_sensors(
    node: "COLRNode",
    region: Region,
    exclude: set[int],
    k: int,
    rng: np.random.Generator,
    kernel: "FlatKernel",
    plan: "SpatialPlan",
    idx: int,
) -> list[int]:
    """Uniformly choose up to ``k`` distinct descendant sensors of a
    terminal node, excluding already-cached leaf sensors."""
    if k <= 0:
        return []
    if node.is_leaf:
        # Memoized in-region membership, in leaf sensor order.
        pool = [
            s.sensor_id
            for s in plan.leaf_matching(kernel, idx, region)
            if s.sensor_id not in exclude
        ]
    else:
        pool = [sid for sid in node.descendant_ids.tolist() if sid not in exclude]
    if not pool:
        return []
    if k >= len(pool):
        return pool
    chosen = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in chosen]


def _randomized_round(x: float, rng: np.random.Generator) -> int:
    """Round to an integer with expectation exactly ``x``."""
    base = int(x)
    frac = x - base
    if frac > 0 and rng.random() < frac:
        base += 1
    return base
