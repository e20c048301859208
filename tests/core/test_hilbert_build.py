"""The Hilbert-curve bulk loader."""

import numpy as np
import pytest

from repro import GeoPoint, Sensor, build_colr_tree
from repro.core.build import hilbert_index
from tests.conftest import leaves


def make_sensors(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Sensor(
            sensor_id=i,
            location=GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=300.0,
        )
        for i in range(n)
    ]


class TestHilbertIndex:
    def test_order_one_quadrants(self):
        # The order-1 curve visits (0,0), (0,1), (1,1), (1,0).
        assert hilbert_index(1, 0, 0) == 0
        assert hilbert_index(1, 0, 1) == 1
        assert hilbert_index(1, 1, 1) == 2
        assert hilbert_index(1, 1, 0) == 3

    def test_bijective_on_small_grid(self):
        order = 3
        side = 1 << order
        indexes = {hilbert_index(order, x, y) for x in range(side) for y in range(side)}
        assert indexes == set(range(side * side))

    def test_consecutive_cells_adjacent(self):
        """The defining property: consecutive curve positions are
        neighbouring cells (Manhattan distance 1)."""
        order = 4
        side = 1 << order
        by_index = {}
        for x in range(side):
            for y in range(side):
                by_index[hilbert_index(order, x, y)] = (x, y)
        for d in range(side * side - 1):
            (x1, y1), (x2, y2) = by_index[d], by_index[d + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1, d

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            hilbert_index(0, 0, 0)
        with pytest.raises(ValueError):
            hilbert_index(2, 4, 0)


class TestHilbertBuild:
    def test_every_sensor_in_exactly_one_leaf(self):
        sensors = make_sensors(500)
        root = build_colr_tree(sensors, fanout=8, leaf_capacity=32, method="hilbert")
        seen = sorted(
            s.sensor_id for leaf in leaves(root) for s in leaf.sensors
        )
        assert seen == list(range(500))

    def test_structure_invariants(self):
        root = build_colr_tree(make_sensors(400), fanout=4, leaf_capacity=16, method="hilbert")
        for node in root.iter_subtree():
            for child in node.children:
                assert node.bbox.contains_rect(child.bbox)
                assert child.level == node.level + 1
            if not node.is_leaf:
                assert node.weight == sum(c.weight for c in node.children)

    def test_leaves_tighter_than_random_grouping(self):
        """Hilbert packing must produce spatially tight leaves: total
        leaf bbox area well below a shuffled grouping's."""
        sensors = make_sensors(1000, seed=3)
        hilbert_root = build_colr_tree(sensors, fanout=8, leaf_capacity=25, method="hilbert")
        hilbert_area = sum(l.bbox.area for l in leaves(hilbert_root))
        rng = np.random.default_rng(4)
        shuffled = list(sensors)
        rng.shuffle(shuffled)
        from repro.geometry import Rect

        random_area = 0.0
        for i in range(0, len(shuffled), 25):
            group = shuffled[i : i + 25]
            random_area += Rect.from_points(s.location for s in group).area
        assert hilbert_area < random_area / 5

    def test_queryable_end_to_end(self):
        from repro import COLRTree, COLRTreeConfig, Rect, SensorNetwork

        sensors = make_sensors(400, seed=5)
        network = SensorNetwork(sensors, seed=1)
        tree = COLRTree(
            sensors, COLRTreeConfig(), network=network, build_method="hilbert"
        )
        answer = tree.query(Rect(0, 0, 50, 50), now=0.0, max_staleness=600.0, sample_size=20)
        assert answer.probed_count > 0
