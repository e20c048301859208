import pytest

from repro import GeoPoint, Rect, Sensor
from repro.core.node import COLRNode


def sensor(i, x=0.0, y=0.0):
    return Sensor(sensor_id=i, location=GeoPoint(x, y), expiry_seconds=300.0)


def leaf(node_id, sensors):
    bbox = Rect.from_points(s.location for s in sensors)
    return COLRNode(node_id=node_id, level=1, bbox=bbox, sensors=sensors)


class TestConstruction:
    def test_leaf_requires_sensors(self):
        with pytest.raises(ValueError):
            COLRNode(node_id=0, level=0, bbox=Rect(0, 0, 1, 1), sensors=[])

    def test_internal_requires_children(self):
        with pytest.raises(ValueError):
            COLRNode(node_id=0, level=0, bbox=Rect(0, 0, 1, 1), children=[])

    def test_must_be_leaf_or_internal(self):
        with pytest.raises(ValueError):
            COLRNode(node_id=0, level=0, bbox=Rect(0, 0, 1, 1))
        with pytest.raises(ValueError):
            COLRNode(
                node_id=0,
                level=0,
                bbox=Rect(0, 0, 1, 1),
                children=[leaf(1, [sensor(0)])],
                sensors=[sensor(1)],
            )

    def test_parent_pointers_set(self):
        a, b = leaf(1, [sensor(0)]), leaf(2, [sensor(1, 1, 1)])
        parent = COLRNode(node_id=0, level=0, bbox=Rect(0, 0, 1, 1), children=[a, b])
        assert a.parent is parent and b.parent is parent

    def test_weight_and_descendants(self):
        a = leaf(1, [sensor(0), sensor(1, 1, 0)])
        b = leaf(2, [sensor(2, 2, 2)])
        parent = COLRNode(node_id=0, level=0, bbox=Rect(0, 0, 2, 2), children=[a, b])
        assert parent.weight == 3
        assert sorted(parent.descendant_ids.tolist()) == [0, 1, 2]


class TestTraversal:
    @pytest.fixture
    def small_tree(self):
        a = leaf(1, [sensor(0)])
        b = leaf(2, [sensor(1, 1, 1)])
        return COLRNode(node_id=0, level=0, bbox=Rect(0, 0, 1, 1), children=[a, b])

    def test_iter_subtree(self, small_tree):
        assert {n.node_id for n in small_tree.iter_subtree()} == {0, 1, 2}

    def test_height(self, small_tree):
        assert small_tree.height() == 1
        assert small_tree.children[0].height() == 0


class TestCaches:
    def test_attach_leaf_cache(self):
        node = leaf(1, [sensor(0)])
        node.attach_caches(60.0)
        assert node.leaf_cache is not None and node.agg_cache is None

    def test_attach_internal_cache(self):
        node = COLRNode(
            node_id=0, level=0, bbox=Rect(0, 0, 1, 1), children=[leaf(1, [sensor(0)])]
        )
        node.attach_caches(60.0)
        assert node.agg_cache is not None and node.leaf_cache is None

    def test_cached_weight_without_cache_is_zero(self):
        node = leaf(1, [sensor(0)])
        assert node.cached_weight(now=0.0, max_staleness=100.0) == 0
