"""Exact (non-sampled) range lookup: R-tree and hierarchical-cache modes."""

import pytest

from repro import COLRTreeConfig, Polygon, Rect
from repro.core.lookup import region_bbox, region_overlap_fraction

from tests.conftest import make_registry, make_tree, within


@pytest.fixture
def registry():
    return make_registry(n=400, seed=1)


class TestPlainRTreeMode:
    def test_probes_exactly_matching_sensors(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_plain_rtree())
        region = Rect(20, 20, 70, 70)
        expected = {s.sensor_id for s in within(registry, region)}
        answer = tree.query(region, now=0.0, max_staleness=600.0)
        assert {r.sensor_id for r in answer.probed_readings} == expected
        assert not answer.cached_readings and not answer.cached_sketches

    def test_repeat_query_probes_again(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_plain_rtree())
        region = Rect(20, 20, 70, 70)
        a1 = tree.query(region, now=0.0, max_staleness=600.0)
        a2 = tree.query(region, now=1.0, max_staleness=600.0)
        assert a2.stats.sensors_probed == a1.stats.sensors_probed

    def test_count_estimate_matches(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_plain_rtree())
        region = Rect(0, 0, 50, 50)
        expected = len(within(registry, region))
        answer = tree.query(region, now=0.0, max_staleness=600.0)
        assert answer.estimate("count") == expected

    def test_empty_region(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_plain_rtree())
        answer = tree.query(Rect(200, 200, 300, 300), now=0.0, max_staleness=600.0)
        assert answer.result_weight == 0


class TestHierarchicalCacheMode:
    def test_second_query_served_from_cache(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_hierarchical_cache())
        region = Rect(10, 10, 80, 80)
        a1 = tree.query(region, now=0.0, max_staleness=600.0)
        a2 = tree.query(region, now=1.0, max_staleness=600.0)
        assert a1.stats.sensors_probed > 0
        assert a2.stats.sensors_probed == 0
        assert a2.result_weight == a1.result_weight

    def test_cache_hit_reduces_traversal(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_hierarchical_cache())
        region = Rect(10, 10, 80, 80)
        a1 = tree.query(region, now=0.0, max_staleness=600.0)
        a2 = tree.query(region, now=1.0, max_staleness=600.0)
        assert a2.stats.nodes_traversed < a1.stats.nodes_traversed
        assert a2.stats.cached_nodes_accessed > 0

    def test_staleness_bound_forces_reprobe(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_hierarchical_cache())
        region = Rect(10, 10, 80, 80)
        tree.query(region, now=0.0, max_staleness=600.0)
        # 50s later with a 30s staleness bound: cached data is too old.
        a = tree.query(region, now=50.0, max_staleness=30.0)
        assert a.stats.sensors_probed > 0

    def test_answer_weight_equals_exact_result(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_hierarchical_cache())
        region = Rect(25, 25, 60, 60)
        expected = len(within(registry, region))
        a1 = tree.query(region, now=0.0, max_staleness=600.0)
        a2 = tree.query(region, now=10.0, max_staleness=600.0)
        assert a1.result_weight == expected
        assert a2.result_weight == expected

    def test_partial_overlap_mixes_cache_and_probe(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_hierarchical_cache())
        tree.query(Rect(0, 0, 50, 50), now=0.0, max_staleness=600.0)
        answer = tree.query(Rect(25, 25, 75, 75), now=1.0, max_staleness=600.0)
        assert answer.stats.sensors_probed > 0
        assert len(answer.cached_readings) + sum(
            s.count for s in answer.cached_sketches
        ) > 0
        expected = len(within(registry, Rect(25, 25, 75, 75)))
        assert answer.result_weight == expected


class TestPolygonQueries:
    def test_polygon_region_exact(self, registry):
        tree = make_tree(registry, COLRTreeConfig().as_plain_rtree())
        poly = Polygon(Rect(20, 20, 60, 60).corners())
        rect_answer = tree.query(Rect(20, 20, 60, 60), now=0.0, max_staleness=600.0)
        poly_answer = tree.query(poly, now=1.0, max_staleness=600.0)
        assert poly_answer.result_weight == rect_answer.result_weight

    def test_triangle_region(self, registry):
        from repro import GeoPoint

        tree = make_tree(registry, COLRTreeConfig().as_plain_rtree())
        tri = Polygon([GeoPoint(0, 0), GeoPoint(100, 0), GeoPoint(0, 100)])
        answer = tree.query(tri, now=0.0, max_staleness=600.0)
        expected = sum(
            1 for s in registry.all() if tri.contains_point(s.location)
        )
        assert answer.result_weight == expected


class TestRegionHelpers:
    def test_region_bbox_of_rect(self):
        r = Rect(0, 0, 1, 1)
        assert region_bbox(r) is r

    def test_region_bbox_of_polygon(self):
        p = Polygon(Rect(0, 0, 2, 2).corners())
        assert region_bbox(p) == Rect(0, 0, 2, 2)

    def test_overlap_fraction_matches_rect_math(self):
        bb = Rect(0, 0, 2, 2)
        assert region_overlap_fraction(bb, Rect(1, 0, 4, 2)) == pytest.approx(0.5)


class TestValidation:
    def test_negative_staleness_rejected(self, registry):
        tree = make_tree(registry)
        with pytest.raises(ValueError):
            tree.query(Rect(0, 0, 1, 1), now=0.0, max_staleness=-1.0)

    def test_no_network_raises_on_probe(self, registry):
        from repro import COLRTree

        tree = COLRTree(registry.all(), COLRTreeConfig().as_plain_rtree())
        with pytest.raises(RuntimeError):
            tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0)
