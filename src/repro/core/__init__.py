"""The COLR-Tree itself: the paper's primary contribution.

The package splits the index into small, separately testable pieces:

``COLRTreeConfig``
    Every tunable of the index (fanout, slot size, threshold levels,
    cache limit, toggles for caching / sampling used by the baselines).
``AggregateSketch``
    The per-slot partial aggregate: count / sum / min / max maintained
    together, with decrement support where the aggregate allows it
    (Section IV-B's insert-vs-update discussion).
``SlotCache``
    The sliding, globally aligned slot cache (Section IV-A).
``COLRNode`` / ``build_colr_tree``
    The k-means-clustered hierarchy (Section III-C).
``COLRTree``
    The facade: bulk build, reading insertion with bottom-up aggregate
    propagation, cache-aware range lookup, and layered sampling.
``layered_sample``
    Algorithm 1 + Algorithm 2 (Section V).
``optimal_slot_size``
    The Section IV-C utility/cost model.
``FlatKernel`` / ``SpatialPlanCache``
    The flattened struct-of-arrays traversal kernel and the LRU plan
    cache memoizing per-region classification results.
"""

from repro.core.config import COLRTreeConfig
from repro.core.aggregates import AggregateSketch
from repro.core.slots import SlotCache, slot_of
from repro.core.node import COLRNode
from repro.core.build import build_colr_tree, kmeans_cluster
from repro.core.tree import COLRTree
from repro.core.explain import PlanTerminal, QueryPlan, explain_query
from repro.core.flat import CONTAINED, DISJOINT, PARTIAL, FlatKernel
from repro.core.lookup import QueryAnswer, TerminalRecord
from repro.core.plancache import SpatialPlan, SpatialPlanCache, region_fingerprint
from repro.core.sampling import layered_sample
from repro.core.slot_sizing import SlotSizeModel, optimal_slot_size
from repro.core.stats import QueryStats

__all__ = [
    "COLRTreeConfig",
    "AggregateSketch",
    "SlotCache",
    "slot_of",
    "COLRNode",
    "build_colr_tree",
    "kmeans_cluster",
    "COLRTree",
    "FlatKernel",
    "CONTAINED",
    "DISJOINT",
    "PARTIAL",
    "SpatialPlan",
    "SpatialPlanCache",
    "region_fingerprint",
    "PlanTerminal",
    "QueryAnswer",
    "QueryPlan",
    "TerminalRecord",
    "explain_query",
    "layered_sample",
    "SlotSizeModel",
    "optimal_slot_size",
    "QueryStats",
]
