import numpy as np
import pytest

from repro import GeoPoint, Sensor, build_colr_tree
from repro.core.build import kmeans_cluster

from tests.conftest import leaves, make_registry


def make_sensors(n, seed=0, coincident=False):
    rng = np.random.default_rng(seed)
    sensors = []
    for i in range(n):
        if coincident:
            loc = GeoPoint(1.0, 1.0)
        else:
            loc = GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        sensors.append(Sensor(sensor_id=i, location=loc, expiry_seconds=300.0))
    return sensors


class TestKMeans:
    def test_labels_shape_and_range(self):
        pts = np.random.default_rng(0).uniform(0, 10, (100, 2))
        labels = kmeans_cluster(pts, 4, np.random.default_rng(1))
        assert labels.shape == (100,)
        assert labels.min() >= 0 and labels.max() < 4

    def test_k_larger_than_n(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = kmeans_cluster(pts, 10, np.random.default_rng(0))
        assert labels.shape == (2,)

    def test_single_cluster(self):
        pts = np.random.default_rng(0).uniform(0, 1, (5, 2))
        assert (kmeans_cluster(pts, 1, np.random.default_rng(0)) == 0).all()

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal((0, 0), 0.1, (50, 2))
        b = rng.normal((100, 100), 0.1, (50, 2))
        labels = kmeans_cluster(np.vstack([a, b]), 2, np.random.default_rng(1))
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[50]

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            kmeans_cluster(np.empty((0, 2)), 2, np.random.default_rng(0))


class TestBuild:
    @pytest.mark.parametrize("method", ["kmeans", "str"])
    def test_every_sensor_in_exactly_one_leaf(self, method):
        sensors = make_sensors(500)
        root = build_colr_tree(sensors, fanout=8, leaf_capacity=32, method=method)
        seen = []
        for leaf in leaves(root):
            seen.extend(s.sensor_id for s in leaf.sensors)
        assert sorted(seen) == list(range(500))

    @pytest.mark.parametrize("method", ["kmeans", "str"])
    def test_leaf_capacity_respected(self, method):
        root = build_colr_tree(make_sensors(500), fanout=8, leaf_capacity=32, method=method)
        assert all(len(leaf.sensors) <= 32 for leaf in leaves(root))

    def test_bbox_containment_invariant(self):
        root = build_colr_tree(make_sensors(500), fanout=8, leaf_capacity=32)
        for node in root.iter_subtree():
            for child in node.children:
                assert node.bbox.contains_rect(child.bbox)
            if node.is_leaf:
                assert all(node.bbox.contains_point(s.location) for s in node.sensors)

    def test_weight_invariant(self):
        root = build_colr_tree(make_sensors(300), fanout=4, leaf_capacity=16)
        for node in root.iter_subtree():
            if not node.is_leaf:
                assert node.weight == sum(c.weight for c in node.children)
            else:
                assert node.weight == len(node.sensors)
        assert root.weight == 300

    def test_levels_root_zero_increasing(self):
        root = build_colr_tree(make_sensors(300), fanout=4, leaf_capacity=16)
        assert root.level == 0
        for node in root.iter_subtree():
            for child in node.children:
                assert child.level == node.level + 1

    def test_descendant_ids_complete(self):
        root = build_colr_tree(make_sensors(200), fanout=4, leaf_capacity=16)
        assert sorted(root.descendant_ids.tolist()) == list(range(200))

    def test_single_sensor(self):
        root = build_colr_tree(make_sensors(1), fanout=8, leaf_capacity=32)
        assert root.is_leaf
        assert root.weight == 1

    def test_coincident_points_terminate(self):
        root = build_colr_tree(
            make_sensors(100, coincident=True), fanout=8, leaf_capacity=16
        )
        assert root.weight == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_colr_tree([], fanout=8, leaf_capacity=32)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            build_colr_tree(make_sensors(10), fanout=8, leaf_capacity=32, method="zorder")

    def test_deterministic_given_seed(self):
        sensors = make_sensors(200)
        r1 = build_colr_tree(sensors, fanout=4, leaf_capacity=16, seed=5)
        r2 = build_colr_tree(sensors, fanout=4, leaf_capacity=16, seed=5)
        l1 = [sorted(s.sensor_id for s in leaf.sensors) for leaf in leaves(r1)]
        l2 = [sorted(s.sensor_id for s in leaf.sensors) for leaf in leaves(r2)]
        assert sorted(map(tuple, l1)) == sorted(map(tuple, l2))

    def test_weight_uniformity_of_kmeans_layers(self):
        """Section VII-B observes near-uniform internal weights per layer;
        the clustering should not produce wildly lopsided siblings."""
        registry = make_registry(n=2000, seed=3)
        root = build_colr_tree(registry.all(), fanout=8, leaf_capacity=32)
        by_level: dict[int, list[int]] = {}
        for node in root.iter_subtree():
            if not node.is_leaf:
                by_level.setdefault(node.level, []).append(node.weight)
        for level, weights in by_level.items():
            if len(weights) < 4:
                continue
            assert max(weights) <= 25 * min(weights), (level, weights)
