"""The declarative join-based descent must agree with the imperative
frontier descent on candidate node sets and cached weights."""

import pytest

from repro import COLRTreeConfig, Reading, Rect
from repro.relcolr import RelCOLRTree
from repro.relcolr.joins import descend_by_joins

from tests.conftest import cached_rows, make_registry


CFG = COLRTreeConfig(
    fanout=4, leaf_capacity=16, max_expiry_seconds=600.0, slot_seconds=120.0
)


@pytest.fixture
def rel():
    registry = make_registry(n=300, seed=80)
    rel = RelCOLRTree(registry.all(), CFG, build_method="str")
    for sensor in registry.all()[:120]:
        rel.insert_reading(
            Reading(
                sensor_id=sensor.sensor_id,
                value=1.0,
                timestamp=0.0,
                expires_at=sensor.expiry_seconds,
            ),
            fetched_at=0.0,
        )
    return registry, rel


def run_joins(rel, region, now=1.0, staleness=600.0):
    return descend_by_joins(
        rel.db,
        rel.names,
        rel.root_id,
        rel.n_levels,
        region,
        now,
        staleness,
        rel.config.slot_seconds,
    )


class TestJoinDescent:
    def test_full_region_reaches_every_node(self, rel):
        registry, tree = rel
        layers = run_joins(tree, Rect(0, 0, 100, 100))
        # Every node except the root appears exactly once.
        all_ids = [row["node_id"] for layer in layers for row in layer]
        n_nodes = len(tree.db.table(tree.names.node_meta))
        assert len(all_ids) == n_nodes - 1
        assert len(set(all_ids)) == len(all_ids)

    def test_partial_region_prunes(self, rel):
        _, tree = rel
        full = run_joins(tree, Rect(0, 0, 100, 100))
        partial = run_joins(tree, Rect(0, 0, 20, 20))
        assert sum(len(l) for l in partial) < sum(len(l) for l in full)

    def test_disjoint_region_empty(self, rel):
        _, tree = rel
        layers = run_joins(tree, Rect(500, 500, 600, 600))
        assert all(layer == [] for layer in layers)

    def test_cached_weights_match_access_method(self, rel):
        _, tree = rel
        layers = run_joins(tree, Rect(0, 0, 100, 100))
        from repro.core.slots import slot_of
        from repro.relational import col

        boundary = slot_of(1.0, tree.config.slot_seconds)
        for layer in layers:
            for row in layer:
                meta = tree.db.table(tree.names.node_meta).get((row["node_id"],))
                expected = tree._usable_cached_weight(
                    row["node_id"], meta, boundary, 1.0 - 600.0
                )
                assert row["cached_weight"] == expected, row

    def test_total_cached_weight_matches_leaf_cache(self, rel):
        _, tree = rel
        layers = run_joins(tree, Rect(0, 0, 100, 100))
        leaf_layer = layers[-1]
        assert sum(r["cached_weight"] for r in leaf_layer) == cached_rows(tree)

    def test_weights_match_structure(self, rel):
        _, tree = rel
        layers = run_joins(tree, Rect(0, 0, 100, 100))
        for layer in layers:
            for row in layer:
                meta = tree.db.table(tree.names.node_meta).get((row["node_id"],))
                assert row["weight"] == int(meta["weight"])

    def test_parent_child_linkage(self, rel):
        _, tree = rel
        layers = run_joins(tree, Rect(0, 0, 100, 100))
        previous = {tree.root_id}
        for layer in layers:
            for row in layer:
                assert row["parent_id"] in previous
            previous = {row["node_id"] for row in layer}
