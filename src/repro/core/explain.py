"""EXPLAIN for COLR-Tree queries: the plan, without the probes.

``explain_query`` walks the index read-only and reports what executing
the query *would* do: which access path runs, how much of the answer
the current cache state covers, the expected number of sensor probes,
and the per-terminal target allocation.  Expectations are computed
deterministically (no randomized rounding, no network), so EXPLAIN is
side-effect-free and repeatable — the operational tool a portal
operator uses to understand a slow or probe-heavy query before running
it.

EXPLAIN reads the same memoized spatial plan (node classification,
overlap fractions, leaf membership) the executing query would, so
explaining a query also warms the plan cache entry that query will hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import DEFAULT_SAMPLE_SIZE
from repro.core.flat import CONTAINED, DISJOINT
from repro.core.lookup import Region

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.flat import FlatKernel
    from repro.core.plancache import SpatialPlan
    from repro.core.tree import COLRTree


@dataclass(frozen=True, slots=True)
class PlanTerminal:
    """One point of index access the plan would terminate at."""

    node_id: int
    level: int
    is_leaf: bool
    target: float
    cached_weight: int
    expected_probes: float


@dataclass
class QueryPlan:
    """The result of EXPLAIN."""

    access_path: str  # "layered_sampling" | "range_lookup"
    target_size: int
    relevant_sensors: int
    cached_weight: int
    expected_probes: float
    terminals: list[PlanTerminal] = field(default_factory=list)

    @property
    def cache_coverage(self) -> float:
        """Fraction of the needed answer servable from cache."""
        denominator = (
            min(self.target_size, self.relevant_sensors)
            if self.access_path == "layered_sampling"
            else self.relevant_sensors
        )
        if denominator <= 0:
            return 1.0
        return min(1.0, self.cached_weight / denominator)

    def format(self) -> str:
        lines = [
            f"access path:      {self.access_path}",
            f"relevant sensors: {self.relevant_sensors}",
            f"target size:      {self.target_size if self.access_path == 'layered_sampling' else 'exact'}",
            f"cache coverage:   {self.cache_coverage:.0%} ({self.cached_weight} readings)",
            f"expected probes:  {self.expected_probes:.1f}",
            f"terminals:        {len(self.terminals)}",
        ]
        for t in sorted(self.terminals, key=lambda t: -t.expected_probes)[:10]:
            kind = "leaf" if t.is_leaf else f"level-{t.level}"
            lines.append(
                f"  node {t.node_id} ({kind}): target {t.target:.2f}, "
                f"cached {t.cached_weight}, probes ~{t.expected_probes:.2f}"
            )
        return "\n".join(lines)


def explain_query(
    tree: "COLRTree",
    region: Region,
    now: float,
    max_staleness: float,
    sample_size: int | None = None,
    terminal_level: int | None = None,
) -> QueryPlan:
    """Produce the plan the given query would execute."""
    if max_staleness < 0:
        raise ValueError("max_staleness must be non-negative")
    if sample_size is None:
        sample_size = DEFAULT_SAMPLE_SIZE
    sampled = tree.config.sampling_enabled and sample_size > 0
    t_level = (
        terminal_level if terminal_level is not None else tree.config.terminal_level
    )
    # Key the plan exactly as the executing query would, so EXPLAIN
    # warms the cache entry the real query will then hit.
    spatial = tree.spatial_plan(region, t_level if sampled else None)
    kernel = tree.kernel
    relevant = _relevant_sensor_count(region, kernel, spatial)
    if not sampled:
        return _explain_exact(tree, region, now, max_staleness, relevant, kernel, spatial)
    plan = QueryPlan(
        access_path="layered_sampling",
        target_size=sample_size,
        relevant_sensors=relevant,
        cached_weight=0,
        expected_probes=0.0,
    )
    _walk_sampled(
        tree, tree.root, region, now, max_staleness, float(sample_size), t_level,
        plan, kernel, spatial, 0,
    )
    plan.cached_weight = sum(t.cached_weight for t in plan.terminals)
    plan.expected_probes = sum(t.expected_probes for t in plan.terminals)
    return plan


def _relevant_sensor_count(
    region: Region, kernel: "FlatKernel", plan: "SpatialPlan"
) -> int:
    if plan._relevant_count is not None:
        return plan._relevant_count
    labels = plan.labels
    child_start = kernel._child_start_list
    total = 0
    stack = [0]
    while stack:
        i = stack.pop()
        label = labels[i]
        if label == DISJOINT:
            continue
        node = kernel.nodes[i]
        if label == CONTAINED:
            total += node.weight
            continue
        if node.is_leaf:
            total += len(plan.leaf_matching(kernel, i, region))
            continue
        start = child_start[i]
        stack.extend(range(start, start + len(node.children)))
    plan._relevant_count = total
    return total


def _explain_exact(
    tree: "COLRTree",
    region: Region,
    now: float,
    max_staleness: float,
    relevant: int,
    kernel: "FlatKernel",
    spatial: "SpatialPlan",
) -> QueryPlan:
    plan = QueryPlan(
        access_path="range_lookup",
        target_size=0,
        relevant_sensors=relevant,
        cached_weight=0,
        expected_probes=0.0,
    )
    _walk_exact(tree, tree.root, region, now, max_staleness, plan, kernel, spatial, 0)
    plan.cached_weight = sum(t.cached_weight for t in plan.terminals)
    plan.expected_probes = sum(t.expected_probes for t in plan.terminals)
    return plan


def _walk_exact(
    tree, node, region, now, max_staleness, plan, kernel, spatial, idx
) -> None:
    label = spatial.labels[idx]
    if label == DISJOINT:
        return
    fully_inside = label == CONTAINED
    caching = tree.config.caching_enabled
    if (
        caching
        and tree.config.aggregate_caching_enabled
        and fully_inside
        and not node.is_leaf
        and node.agg_cache is not None
    ):
        covered = node.agg_cache.usable_weight(now, max_staleness)
        if covered >= node.weight:
            plan.terminals.append(
                PlanTerminal(
                    node_id=node.node_id,
                    level=node.level,
                    is_leaf=False,
                    target=float(node.weight),
                    cached_weight=covered,
                    expected_probes=0.0,
                )
            )
            return
    if node.is_leaf:
        if fully_inside:
            matching = node.sensors
        else:
            matching = spatial.leaf_matching(kernel, idx, region)
        if not matching:
            return
        cached_ids = (
            node.leaf_cache.fresh_sensor_ids(now, max_staleness)
            if caching and node.leaf_cache is not None
            else set()
        )
        served = sum(1 for s in matching if s.sensor_id in cached_ids)
        plan.terminals.append(
            PlanTerminal(
                node_id=node.node_id,
                level=node.level,
                is_leaf=True,
                target=float(len(matching)),
                cached_weight=served,
                expected_probes=float(len(matching) - served),
            )
        )
        return
    start = kernel._child_start_list[idx]
    for offset, child in enumerate(node.children):
        _walk_exact(
            tree, child, region, now, max_staleness, plan, kernel, spatial,
            start + offset,
        )


def _walk_sampled(
    tree, node, region, now, max_staleness, r, t_level, plan, kernel, spatial, idx
) -> None:
    """Deterministic mirror of Algorithm 1: expectations only."""
    config = tree.config
    if r <= 0:
        return
    if node.is_leaf:
        _plan_terminal(tree, node, region, now, max_staleness, r, plan)
        return
    weighted = []
    total = 0.0
    overlaps = spatial.overlaps(kernel, region)
    labels = spatial.labels
    start = kernel._child_start_list[idx]
    for offset, child in enumerate(node.children):
        child_idx = start + offset
        overlap = overlaps.get(child_idx, 0.0)
        if overlap <= 0.0 and labels[child_idx] == DISJOINT:
            continue
        w = child.weight * max(overlap, 1e-12)
        weighted.append((child, w, child_idx))
        total += w
    if total <= 0:
        return
    for child, w, child_idx in weighted:
        r_i = r * w / total
        inside = labels[child_idx] == CONTAINED
        if inside and node.level > t_level:
            _plan_terminal(tree, child, region, now, max_staleness, r_i, plan)
        else:
            if inside and config.caching_enabled:
                cached = child.cached_weight(now, max_staleness)
                if cached >= r_i:
                    plan.terminals.append(
                        PlanTerminal(
                            node_id=child.node_id,
                            level=child.level,
                            is_leaf=child.is_leaf,
                            target=r_i,
                            cached_weight=cached,
                            expected_probes=0.0,
                        )
                    )
                    continue
            _walk_sampled(
                tree, child, region, now, max_staleness, r_i, t_level, plan,
                kernel, spatial, child_idx,
            )


def _plan_terminal(tree, node, region, now, max_staleness, r_i, plan) -> None:
    config = tree.config
    cached = node.cached_weight(now, max_staleness) if config.caching_enabled else 0
    need = max(0.0, r_i - cached)
    if need > 0 and config.oversampling_enabled:
        need = need / tree.node_availability(node, now)
    pool = node.n_descendants - (cached if node.is_leaf else 0)
    expected = min(need, float(max(0, pool)))
    plan.terminals.append(
        PlanTerminal(
            node_id=node.node_id,
            level=node.level,
            is_leaf=node.is_leaf,
            target=r_i,
            cached_weight=min(cached, node.weight),
            expected_probes=expected,
        )
    )
