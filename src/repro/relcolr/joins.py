"""Join-based layer descent (Section VI-A, literally).

The paper describes the sensor-selection access method as "a multiway
join on the layer tables, executed as a left deep join tree that joins
each layer's node table and cache table from root to leaf layer".  The
frontier descent in :mod:`repro.relcolr.tree` implements the same
*semantics* imperatively; this module provides the declarative
join-pipeline form for fidelity: each step joins the current frontier
relation with the next layer table under the spatial predicate
and left-joins the cache aggregates, producing the candidate node set
per layer.

`descend_by_joins` returns, per layer, the list of candidate rows
``{node_id, weight, cached_weight, bbox...}`` — exactly the relation
the sampling heuristic consumes.  `tests/relcolr/test_joins.py` asserts
it reaches the same node sets as the imperative descent.
"""

from __future__ import annotations

from repro.core.lookup import Region, region_bbox
from repro.core.slots import slot_of
from repro.geometry import Rect
from repro.relational import BBoxIntersects, Database, col
from repro.relcolr.schema import SchemaNames


def descend_by_joins(
    db: Database,
    names: SchemaNames,
    root_id: int,
    n_levels: int,
    region: Region,
    now: float,
    max_staleness: float,
    slot_seconds: float,
) -> list[list[dict]]:
    """Candidate nodes per layer via declarative joins.

    Layer ``k``'s candidates are the children of layer ``k-1``'s
    candidates whose bounding boxes intersect the query region,
    annotated with their usable cached weight from the cache table.
    The returned list has one entry per tree level below the root.
    """
    boundary = slot_of(now, slot_seconds)
    freshness_floor = now - max_staleness
    query_bbox = region_bbox(region)
    spatial = BBoxIntersects(
        "child_min_x", "child_min_y", "child_max_x", "child_max_y", query_bbox
    )
    frontier_ids = {root_id}
    per_layer: list[list[dict]] = []
    for level in range(n_levels - 1):
        # Join the frontier against this layer's edges under the
        # spatial predicate — the layer-to-layer step of the left-deep
        # join tree.
        edges = db.table(names.layer(level)).scan(
            col("node_id").in_(frontier_ids) & spatial
        )
        if not edges:
            per_layer.append([])
            frontier_ids = set()
            continue
        # Left-join the cache table: usable cached weight per child.
        cached_by_node: dict[int, int] = {}
        child_level = level + 1
        if child_level < n_levels - 1:
            for group in db.group_aggregate(
                names.cache(child_level),
                ["node_id"],
                "value_count",
                col("node_id").in_(int(e["child_id"]) for e in edges)
                & (col("slot_id") > boundary)
                & (col("oldest_ts") >= freshness_floor),
            ):
                cached_by_node[int(group["node_id"])] = int(group["sum"])
        else:
            # Leaf layer: count fresh raw readings per leaf.
            rows = db.table(names.leaf_cache).scan(
                col("leaf_id").in_(int(e["child_id"]) for e in edges)
                & (col("slot_id") > boundary)
                & (col("timestamp") >= freshness_floor)
            )
            for row in rows:
                leaf = int(row["leaf_id"])
                cached_by_node[leaf] = cached_by_node.get(leaf, 0) + 1
        layer_rows = []
        next_frontier: set[int] = set()
        for edge in edges:
            child_id = int(edge["child_id"])
            next_frontier.add(child_id)
            layer_rows.append(
                {
                    "node_id": child_id,
                    "parent_id": int(edge["node_id"]),
                    "weight": int(edge["child_weight"]),
                    "cached_weight": cached_by_node.get(child_id, 0),
                    "bbox": Rect(
                        float(edge["child_min_x"]),
                        float(edge["child_min_y"]),
                        float(edge["child_max_x"]),
                        float(edge["child_max_y"]),
                    ),
                }
            )
        per_layer.append(layer_rows)
        frontier_ids = next_frontier
    return per_layer
