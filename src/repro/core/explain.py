"""EXPLAIN for COLR-Tree queries: the plan, without the probes.

``explain_query`` reports what executing a query *would* do: which
access path runs, how much of the answer the current cache state
covers, the expected number of sensor probes, and the per-terminal
allocation.  It never probes, so it is side-effect-free and repeatable
— the operational tool a portal operator uses to understand a slow or
probe-heavy query before running it.

An exact plan is read off the executor's own traversal
(:func:`repro.core.lookup.scan_with_plan`, which serves from cache and
lists the probes without sending them), so it is what execution does,
terminal for terminal.  A sampled plan is an expectation: a walk of
Algorithm 1's shares without randomized rounding (``_walk_sampled``
names where it departs from execution).  Both count the relevant
sensors off that scan.

EXPLAIN reads the same memoized spatial plan (keyed by the region
alone) the executing query would, so explaining a query also warms the
plan cache entry that query will hit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.config import DEFAULT_SAMPLE_SIZE
from repro.core.flat import CONTAINED
from repro.core.lookup import QueryAnswer, Region, scan_with_plan
from repro.core.sampling import _child_shares
from repro.core.tree import _check_query

if TYPE_CHECKING:  # pragma: no cover
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
        return cache_coverage((self,))

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


def cache_coverage(plans: Iterable[QueryPlan]) -> float:
    """Fraction of the needed answer of ``plans`` servable from cache:
    their total cached weight over the total of what each needs (its
    relevant sensors, capped at its target when sampled)."""
    cached = needed = 0
    for p in plans:
        cached += p.cached_weight
        needed += (
            min(p.target_size, p.relevant_sensors)
            if p.access_path == "layered_sampling"
            else p.relevant_sensors
        )
    if needed <= 0:
        return 1.0
    return min(1.0, cached / needed)


def explain_query(
    tree: "COLRTree",
    region: Region,
    now: float,
    max_staleness: float,
    sample_size: int | None = None,
    terminal_level: int | None = None,
) -> QueryPlan:
    """Produce the plan the given query would execute."""
    _check_query(max_staleness, terminal_level)
    if sample_size is None:
        sample_size = DEFAULT_SAMPLE_SIZE
    spatial = tree.spatial_plan(region)
    scan, to_probe = scan_with_plan(
        tree, region, now, max_staleness, spatial, QueryAnswer()
    )
    relevant = int(sum(t.target for t in scan.terminals))
    if not (tree.config.sampling_enabled and sample_size > 0):
        # A terminal's expected probes are its sensors on the scan's
        # probe list; the rest of its results come from cache.
        probes = Counter(tree.leaf_for(sensor_id).node_id for sensor_id in to_probe)
        return QueryPlan(
            access_path="range_lookup",
            target_size=0,
            relevant_sensors=relevant,
            cached_weight=len(scan.cached_readings)
            + sum(s.count for s in scan.cached_sketches),
            expected_probes=float(len(to_probe)),
            terminals=[
                PlanTerminal(
                    node_id=t.node_id,
                    level=t.level,
                    is_leaf=tree.node(t.node_id).is_leaf,
                    target=t.target,
                    cached_weight=t.results - probes[t.node_id],
                    expected_probes=float(probes[t.node_id]),
                )
                for t in scan.terminals
            ],
        )
    plan = QueryPlan(
        access_path="layered_sampling",
        target_size=sample_size,
        relevant_sensors=relevant,
        cached_weight=0,
        expected_probes=0.0,
    )
    t_level = (
        terminal_level if terminal_level is not None else tree.config.terminal_level
    )
    _walk_sampled(
        tree, tree.root, region, now, max_staleness, float(sample_size), t_level,
        plan, tree.kernel, spatial, 0,
    )
    plan.cached_weight = sum(t.cached_weight for t in plan.terminals)
    plan.expected_probes = sum(t.expected_probes for t in plan.terminals)
    return plan


def _walk_sampled(
    tree, node, region, now, max_staleness, r, t_level, plan, kernel, spatial, idx
) -> None:
    """Expected probes of Algorithm 1, walked without randomized
    rounding or probes.

    The walk is not :func:`repro.core.sampling.layered_sample` in
    expectation; it differs in four places:

    * it applies the ``1/a`` oversampling factor at the terminal, not
      once per path at the oversampling level ``O``;
    * it tests cache sufficiency against the unscaled share;
    * a partial leaf's probe pool is all of its sensors, not only the
      in-region ones;
    * it has no REDISTRIBUTE.

    EXPERIMENTS.md records the drift this leaves against execution.
    """
    config = tree.config
    if r <= 0:
        return
    if node.is_leaf:
        _plan_terminal(tree, node, region, now, max_staleness, r, plan)
        return
    labels = spatial.labels
    for child, share, child_idx in _child_shares(node, region, kernel, spatial, idx):
        r_i = r * share
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
