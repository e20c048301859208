"""Figure 3 — internal node traversal vs ideal result-set size.

Three configurations over the Live-Local-like stream: plain R-tree,
hierarchical cache, full COLR-Tree.  Queries are binned by the exact
number of sensors inside their region; the main plot is mean nodes
traversed per bin, the nested plot mean cached nodes accessed.

Paper shape: R-tree traversal grows linearly with result size;
hierarchical cache and COLR-Tree traverse similarly few nodes, with
COLR-Tree touching 5-8x fewer cached nodes than the hierarchical cache.

    python -m repro.bench fig3 [--quick]
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.fleets import EvalSetup, ideal_result_sizes, run_query_stream
from repro.bench.runner import Bench

N_BINS = 8


def bin_by_result_size(
    sizes: np.ndarray,
    values: Sequence[float],
    n_bins: int = N_BINS,
) -> list[dict]:
    """Average ``values`` in logarithmic result-size bins, one
    ``{"low", "high", "queries", "mean"}`` per non-empty bin.

    Queries with zero ideal results are collected into a dedicated
    [0, 0] bin; the rest use log-spaced edges from 1 to the max size.
    """
    if len(sizes) != len(values):
        raise ValueError("sizes and values must align")
    if len(sizes) == 0:
        return []
    values_arr = np.asarray(values, dtype=np.float64)

    def bin_of(low: int, high: int, mask: np.ndarray) -> dict:
        return {
            "low": int(low),
            "high": int(high),
            "queries": int(mask.sum()),
            "mean": float(values_arr[mask].mean()),
        }

    bins: list[dict] = []
    zero_mask = sizes == 0
    if zero_mask.any():
        bins.append(bin_of(0, 0, zero_mask))
    nonzero = sizes[~zero_mask]
    if nonzero.size == 0:
        return bins
    top = max(2, int(nonzero.max()))
    edges = np.unique(
        np.round(np.logspace(0, np.log10(top), n_bins + 1)).astype(np.int64)
    )
    for low, high in zip(edges[:-1], edges[1:]):
        mask = (~zero_mask) & (sizes >= low) & (sizes < high if high != edges[-1] else sizes <= high)
        if mask.any():
            bins.append(bin_of(low, high, mask))
    return bins


def run(n_sensors: int, n_queries: int) -> dict:
    """Run the three configurations over one stream and bin traversal."""
    setup = EvalSetup(n_sensors=n_sensors, n_queries=n_queries)
    sizes = ideal_result_sizes(setup.sensors, setup.queries)
    systems = {
        "rtree": (setup.make_plain_rtree(), False),
        "hier_cache": (setup.make_hierarchical_cache(), False),
        "colr_tree": (setup.make_colr_tree(), True),
    }
    phases = {}
    for name, (system, sampling) in systems.items():
        records = run_query_stream(system, setup.queries, use_sampling=sampling).records
        traversed = [r.nodes_traversed for r in records]
        # The nested plot charges each configuration with its total
        # cache work: lookups plus per-reading maintenance touches.
        # The hierarchical cache inserts every probed reading, COLR-Tree
        # only its samples — the source of the paper's 5-8x gap.
        cached = [r.cached_nodes_accessed + r.maintenance_ops for r in records]
        phases[name] = {
            "mean_nodes_traversed": float(np.mean(traversed)),
            "mean_cached_work": float(np.mean(cached)),
            "traversal_bins": bin_by_result_size(sizes, traversed),
            "cached_work_bins": bin_by_result_size(sizes, cached),
        }
    rtree, hier, colr = phases["rtree"], phases["hier_cache"], phases["colr_tree"]
    sized = [b for b in rtree["traversal_bins"] if b["low"] > 0]
    return {
        "phases": phases,
        "checks": {
            "fig3_rtree_has_3_nonempty_size_bins": len(sized) >= 3,
            "fig3_rtree_traversal_top_bin_gt_2_5x_bottom": bool(sized)
            and sized[-1]["mean"] > 2.5 * sized[0]["mean"],
            "fig3_colr_traverses_fewer_than_rtree": colr["mean_nodes_traversed"]
            < rtree["mean_nodes_traversed"],
            "fig3_hier_traverses_at_most_rtree": hier["mean_nodes_traversed"]
            <= rtree["mean_nodes_traversed"],
            "fig3_cached_work_hier_over_colr_gt_1_5x": hier["mean_cached_work"]
            > 1.5 * colr["mean_cached_work"],
            "fig3_rtree_does_no_cache_work": rtree["mean_cached_work"] == 0.0,
        },
    }


BENCH = Bench(
    name="fig3",
    full={"n_sensors": 40_000, "n_queries": 500},
    quick={"n_sensors": 10_000, "n_queries": 250},
    run=run,
)
