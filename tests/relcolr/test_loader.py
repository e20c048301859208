import pytest

from repro import COLRTreeConfig, build_colr_tree
from repro.relational import Database, col
from repro.relcolr import SchemaNames, load_tree
from repro.relcolr.loader import tree_depth

from tests.conftest import leaves, make_registry


@pytest.fixture
def loaded():
    registry = make_registry(n=200, seed=3)
    root = build_colr_tree(registry.all(), fanout=4, leaf_capacity=16, method="str")
    db = Database()
    names = load_tree(db, root)
    return registry, root, db, names


class TestLoad:
    def test_tree_depth(self, loaded):
        _, root, _, _ = loaded
        assert tree_depth(root) == root.height() + 1

    def test_tables_created(self, loaded):
        _, root, db, names = loaded
        depth = tree_depth(root)
        for level in range(depth - 1):
            db.table(names.layer(level))
            db.table(names.cache(level))
        db.table(names.leaf_cache)
        db.table(names.sensors)
        db.table(names.node_meta)

    def test_every_sensor_loaded(self, loaded):
        registry, _, db, names = loaded
        assert len(db.table(names.sensors)) == len(registry)

    def test_node_meta_complete(self, loaded):
        _, root, db, names = loaded
        n_nodes = sum(1 for _ in root.iter_subtree())
        assert len(db.table(names.node_meta)) == n_nodes

    def test_edges_match_hierarchy(self, loaded):
        _, root, db, names = loaded
        for node in root.iter_subtree():
            if node.is_leaf:
                continue
            edges = db.table(names.layer(node.level)).scan(col("node_id") == node.node_id)
            assert {int(e["child_id"]) for e in edges} == {
                c.node_id for c in node.children
            }
            for edge in edges:
                child = next(c for c in node.children if c.node_id == edge["child_id"])
                assert edge["child_weight"] == child.weight
                assert edge["child_min_x"] == child.bbox.min_x

    def test_root_has_null_parent(self, loaded):
        _, root, db, names = loaded
        meta = db.table(names.node_meta).get((root.node_id,))
        assert meta["parent_id"] is None
        assert meta["level"] == 0

    def test_sensor_leaf_mapping(self, loaded):
        _, root, db, names = loaded
        for leaf in leaves(root):
            rows = db.table(names.sensors).scan(col("leaf_id") == leaf.node_id)
            assert {int(r["sensor_id"]) for r in rows} == {
                s.sensor_id for s in leaf.sensors
            }
