"""Query answers and the non-sampled range lookup.

This module implements the classic top-down range lookup of Section
III-C plus the cache-read extensions of Section IV-B: traversal prunes
non-overlapping nodes, terminates early at internal nodes whose slot
cache fully covers the subtree for the query's freshness bound, and at
leaves serves fresh cached readings before probing the remainder.

Traversal consumes a vectorized node classification
(:mod:`repro.core.flat`), memoized in the spatial plan cache
(:mod:`repro.core.plancache`), instead of calling geometry predicates
node by node.  When every slot cache is empty (cold tree, or caching
disabled) the whole scan collapses to a few array operations plus
terminal emission.  The per-node pointer recursion it replaced lives on
as the differential oracle ``tests/core/reference_traversal.py``.

Layered sampling — the other access path — lives in
:mod:`repro.core.sampling`; both paths return the same
:class:`QueryAnswer` type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.aggregates import AggregateSketch, combine
from repro.core.flat import CONTAINED, DISJOINT
from repro.core.region import Region, region_bbox, region_overlap_fraction
from repro.core.stats import QueryStats
from repro.geometry import Rect
from repro.sensors.sensor import Reading, Sensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.flat import FlatKernel
    from repro.core.node import COLRNode
    from repro.core.plancache import SpatialPlan
    from repro.core.tree import COLRTree

__all__ = [
    "QueryAnswer",
    "Region",
    "TerminalRecord",
    "range_lookup",
    "range_scan",
    "scan_with_plan",
    "region_bbox",
    "region_overlap_fraction",
]


class TerminalRecord(NamedTuple):
    """Per-terminal accounting used by Figure 6's probe discretization
    error: the pre-oversampling target assigned to a terminal point of
    index access, and the results it produced.

    A ``NamedTuple`` rather than a frozen dataclass: exact range scans
    emit one record per matching leaf, which makes construction cost a
    measurable slice of the vectorized scan's floor — tuple construction
    is several times cheaper than a frozen dataclass ``__init__``."""

    node_id: int
    level: int
    target: float
    results: int
    used_cache: bool


@dataclass
class QueryAnswer:
    """Everything a query produced.

    ``probed_readings`` came from live sensors this query; the cached
    components were served from slot caches.  Aggregate results combine
    all three sources.
    """

    probed_readings: list[Reading] = field(default_factory=list)
    cached_readings: list[Reading] = field(default_factory=list)
    cached_sketches: list[AggregateSketch] = field(default_factory=list)
    # Node id each cached sketch came from (parallel to cached_sketches);
    # the portal uses it to place aggregate groups on the map.
    cached_sketch_nodes: list[int] = field(default_factory=list)
    terminals: list[TerminalRecord] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def probed_count(self) -> int:
        return len(self.probed_readings)

    @property
    def result_weight(self) -> int:
        """Number of sensor readings represented in the answer,
        including those inside cached aggregates."""
        return (
            len(self.probed_readings)
            + len(self.cached_readings)
            + sum(s.count for s in self.cached_sketches)
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def combined_sketch(self) -> AggregateSketch:
        """One sketch over every reading and cached aggregate."""
        out = combine(self.cached_sketches)
        for reading in self.probed_readings:
            out.add(reading.value, reading.timestamp)
        for reading in self.cached_readings:
            out.add(reading.value, reading.timestamp)
        return out

    def estimate(self, function: str) -> float:
        """Aggregate result (``count`` / ``sum`` / ``avg`` / ``min`` /
        ``max``) over the answer."""
        return self.combined_sketch().result(function)


def range_lookup(
    tree: "COLRTree",
    region: Region,
    now: float,
    max_staleness: float,
    aggregate_termination: bool = True,
) -> QueryAnswer:
    """Exact (non-sampled) range query.

    With caching disabled this is a standard R-tree range lookup that
    probes every matching sensor — the evaluation's "regular R-Tree"
    configuration.  With caching enabled it is the "hierarchical cache":
    traversal stops at internal nodes whose usable cached aggregates
    cover the whole subtree, and leaves serve fresh readings from cache
    before probing the remainder.
    """
    answer, to_probe = range_scan(
        tree, region, now, max_staleness,
        aggregate_termination=aggregate_termination,
    )
    if to_probe:
        readings = tree.probe_and_cache(
            to_probe, now, answer.stats, max_staleness=max_staleness
        )
        answer.probed_readings.extend(readings)
    return answer


def range_scan(
    tree: "COLRTree",
    region: Region,
    now: float,
    max_staleness: float,
    aggregate_termination: bool = True,
) -> tuple[QueryAnswer, list[int]]:
    """The traversal half of :func:`range_lookup`: serve what the slot
    caches cover and return the sensor ids still needing live probes.

    Exposed separately so the traversal microbenchmark (and tests) can
    meter index work without paying for (identical) network probes.
    """
    answer = QueryAnswer()
    plan = tree.spatial_plan(region, answer.stats)
    return scan_with_plan(
        tree, region, now, max_staleness, plan, answer,
        aggregate_termination=aggregate_termination,
    )


def scan_with_plan(
    tree: "COLRTree",
    region: Region,
    now: float,
    max_staleness: float,
    plan: "SpatialPlan",
    answer: QueryAnswer,
    aggregate_termination: bool = True,
) -> tuple[QueryAnswer, list[int]]:
    """Traversal with an already-resolved spatial plan.

    The batch executor resolves plans itself (so queries sharing a
    region reuse one classification per batch) and injects them here.
    The caller owns the plan-lookup accounting — this function never
    touches the plan cache.

    ``aggregate_termination=False`` skips the sketch early-termination
    check at fully covered internal nodes (see ``COLRTree.query``).  On
    a tree with nothing cached the empty-cache fast path still runs —
    no sketch can exist there, so the answer content is identical
    either way (only the consultation counter it memoizes differs).
    """
    to_probe: list[int] = []
    kernel = tree.kernel
    if not tree.config.caching_enabled or tree.cached_reading_count == 0:
        _scan_empty_cache(tree, kernel, plan, region, answer, to_probe)
    else:
        _scan_cached(
            tree, kernel, plan, region, now, max_staleness, answer, to_probe,
            aggregate_termination,
        )
    return answer, to_probe


# ----------------------------------------------------------------------
# Traversal
# ----------------------------------------------------------------------
def _scan_cached(
    tree: "COLRTree",
    kernel: "FlatKernel",
    plan: "SpatialPlan",
    region: Region,
    now: float,
    max_staleness: float,
    answer: QueryAnswer,
    to_probe: list[int],
    aggregate_termination: bool = True,
) -> None:
    """Preorder walk for trees with cached readings: geometry
    predicates are lookups into the precomputed classification labels,
    slot caches are consulted node by node."""
    labels = plan.labels
    child_start = kernel._child_start_list
    child_count = kernel._child_count_list
    is_leaf = kernel._is_leaf_list
    nodes = kernel.nodes
    stats = answer.stats
    stack = [0]
    while stack:
        i = stack.pop()
        stats.nodes_traversed += 1
        label = labels[i]
        if label == DISJOINT:
            continue
        node = nodes[i]
        fully_inside = label == CONTAINED
        if is_leaf[i]:
            matching = (
                node.sensors if fully_inside else plan.leaf_matching(kernel, i, region)
            )
            _serve_leaf(tree, node, matching, now, max_staleness, answer, to_probe)
            continue
        if aggregate_termination and _try_aggregate_termination(
            tree, node, fully_inside, now, max_staleness, answer
        ):
            continue
        start = child_start[i]
        # Children pushed in reverse so they pop in child-list order
        # (preorder).
        stack.extend(range(start + child_count[i] - 1, start - 1, -1))


def _scan_empty_cache(
    tree: "COLRTree",
    kernel: "FlatKernel",
    plan: "SpatialPlan",
    region: Region,
    answer: QueryAnswer,
    to_probe: list[int],
) -> None:
    """Fully vectorized scan for trees whose slot caches hold nothing
    (caching disabled, or simply nothing cached yet).

    With no cached readings anywhere, no aggregate termination can fire
    and no leaf can serve from cache, so the whole traversal outcome —
    visit counts, cache consultations, terminals, probe list — is a
    pure function of the classification.  It is computed with array
    operations once and memoized on the plan: a warm repeat costs two
    list copies and three counter bumps.
    """
    memo = plan._empty_scan
    if memo is None:
        labels = plan.label_array()
        visited = kernel.visited_mask(labels)
        nodes_traversed = int(visited.sum())
        caching = tree.config.caching_enabled
        cache_consults = 0
        if caching and tree.config.aggregate_caching_enabled:
            cache_consults = int(
                (visited & ~kernel.is_leaf & (labels == CONTAINED)).sum()
            )
        terminals: list[TerminalRecord] = []
        probe_ids: list[int] = []
        leaf_accesses = 0
        if isinstance(region, Rect):
            # Rectangular region: the whole leaf stage is a handful of
            # array ops, restricted to the preorder span between the
            # first and last candidate (visited, non-disjoint) leaf so
            # per-query cost scales with the answer's neighbourhood, not
            # the sensor population.  A candidate leaf's matching set is
            # exactly its in-rect sensors — for CONTAINED leaves the
            # rect covers the leaf bbox and hence every sensor, so one
            # point-in-rect test serves both label cases.
            pl = kernel.preorder_leaves
            candidate = visited[pl] & (labels[pl] != DISJOINT)
            cand_pos = np.flatnonzero(candidate)
            if len(cand_pos):
                first = int(cand_pos[0])
                last = int(cand_pos[-1])
                bounds = kernel.pre_leaf_bounds
                blo = int(bounds[first])
                bhi = int(bounds[last + 1])
                x = kernel.pre_sensor_x[blo:bhi]
                y = kernel.pre_sensor_y[blo:bhi]
                selected = (
                    (region.min_x <= x)
                    & (x <= region.max_x)
                    & (region.min_y <= y)
                    & (y <= region.max_y)
                ) & np.repeat(
                    candidate[first : last + 1],
                    kernel.pre_leaf_sizes[first : last + 1],
                )
                probe_ids = kernel.pre_sensor_ids[blo:bhi][selected].tolist()
                counts = np.add.reduceat(
                    selected, bounds[first : last + 1] - blo, dtype=np.int64
                )
                hit = np.flatnonzero(counts > 0)
                matched = counts[hit]
                hit += first
                # Field columns extracted with array indexing, records
                # built by ``tuple.__new__`` via ``_make`` — no
                # Python-level loop.
                terminals = list(
                    map(
                        TerminalRecord._make,
                        zip(
                            kernel._pre_leaf_node_ids[hit].tolist(),
                            kernel._pre_leaf_levels[hit].tolist(),
                            matched.astype(np.float64).tolist(),
                            matched.tolist(),
                            repeat(False),
                        ),
                    )
                )
            leaf_accesses = len(terminals)
        else:
            sensor_ids = kernel.sensor_ids
            visited_list = visited.tolist()
            label_bytes = plan.labels
            for i in kernel.preorder_leaves.tolist():
                if not visited_list[i]:
                    continue
                label = label_bytes[i]
                if label == DISJOINT:
                    continue
                node = kernel.nodes[i]
                if label == CONTAINED:
                    ids = sensor_ids[
                        kernel.leaf_start[i] : kernel.leaf_end[i]
                    ].tolist()
                else:
                    ids = [
                        s.sensor_id for s in plan.leaf_matching(kernel, i, region)
                    ]
                if not ids:
                    continue
                leaf_accesses += 1
                probe_ids.extend(ids)
                terminals.append(
                    TerminalRecord(
                        node_id=node.node_id,
                        level=node.level,
                        target=float(len(ids)),
                        results=len(ids),
                        used_cache=False,
                    )
                )
        if caching:
            cache_consults += leaf_accesses
        memo = (nodes_traversed, cache_consults, tuple(terminals), probe_ids)
        plan._empty_scan = memo
    nodes_traversed, cache_consults, terminals, probe_ids = memo
    answer.stats.nodes_traversed += nodes_traversed
    answer.stats.cached_nodes_accessed += cache_consults
    answer.terminals.extend(terminals)
    to_probe.extend(probe_ids)


# ----------------------------------------------------------------------
# Shared serve logic
# ----------------------------------------------------------------------
def _try_aggregate_termination(
    tree: "COLRTree",
    node: "COLRNode",
    fully_inside: bool,
    now: float,
    max_staleness: float,
    answer: QueryAnswer,
) -> bool:
    """Early termination at a fully covered internal node (Section
    IV-B).  Returns True when the subtree was answered from cache."""
    if not (
        tree.config.caching_enabled
        and tree.config.aggregate_caching_enabled
        and fully_inside
    ):
        return False
    cache = node.agg_cache
    if cache is None:
        return False
    # The consultation itself is the metered cache access: the
    # hierarchical cache pays it at every fully-covered node it
    # meets, which is the extra cache-lookup work Figure 3's
    # nested plot charges it with.
    answer.stats.cached_nodes_accessed += 1
    sketches = cache.usable_sketches(now, max_staleness)
    covered = sum(s.count for s in sketches)
    if covered < node.weight:
        return False
    # Early termination: the whole subtree is answerable from this
    # node's cached aggregates.
    answer.cached_sketches.extend(s.copy() for s in sketches)
    answer.cached_sketch_nodes.extend(node.node_id for _ in sketches)
    answer.stats.slots_combined += len(sketches)
    answer.terminals.append(
        TerminalRecord(
            node_id=node.node_id,
            level=node.level,
            target=float(node.weight),
            results=covered,
            used_cache=True,
        )
    )
    return True


def _serve_leaf(
    tree: "COLRTree",
    leaf: "COLRNode",
    matching: list[Sensor],
    now: float,
    max_staleness: float,
    answer: QueryAnswer,
    to_probe: list[int],
) -> None:
    """Serve a leaf's in-region sensors: cached fresh readings first,
    probes for the rest."""
    if not matching:
        return
    served = 0
    cached_ids: set[int] = set()
    if tree.config.caching_enabled and leaf.leaf_cache is not None:
        answer.stats.cached_nodes_accessed += 1
        answer.stats.readings_scanned += len(leaf.leaf_cache)
        fresh = {
            r.sensor_id: r for r in leaf.leaf_cache.fresh_readings(now, max_staleness)
        }
        for sensor in matching:
            reading = fresh.get(sensor.sensor_id)
            if reading is not None:
                answer.cached_readings.append(reading)
                cached_ids.add(sensor.sensor_id)
                served += 1
    probe_ids = [s.sensor_id for s in matching if s.sensor_id not in cached_ids]
    to_probe.extend(probe_ids)
    answer.terminals.append(
        TerminalRecord(
            node_id=leaf.node_id,
            level=leaf.level,
            target=float(len(matching)),
            results=served + len(probe_ids),
            used_cache=bool(cached_ids),
        )
    )
