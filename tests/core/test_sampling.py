"""Layered sampling behaviour (Algorithm 1 + 2) on small trees."""

import numpy as np
import pytest

from repro import COLRTreeConfig, Rect

from tests.conftest import make_registry, make_tree, within


@pytest.fixture
def registry():
    return make_registry(n=800, seed=9)


class TestBasicSampling:
    def test_zero_target_returns_empty(self, registry):
        tree = make_tree(registry)
        answer = tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=0)
        # sample_size=0 falls back to the exact lookup, which probes.
        assert answer.result_weight > 0

    def test_small_target_probes_few(self, registry):
        tree = make_tree(registry)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=20
        )
        # All sensors are fully available; target 20 with the prior-0.5
        # oversample can at most double. Far fewer than the 800 present.
        assert 0 < answer.stats.sensors_probed <= 80

    def test_sample_much_smaller_than_population(self, registry):
        tree = make_tree(registry)
        exact = len(within(registry, Rect(0, 0, 100, 100)))
        answer = tree.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=50
        )
        assert answer.stats.sensors_probed < exact / 3

    def test_probed_sensors_lie_in_region(self, registry):
        tree = make_tree(registry)
        region = Rect(10, 10, 55, 55)
        answer = tree.query(region, now=0.0, max_staleness=600.0, sample_size=40)
        margin = region.expanded(1e-9)
        for r in answer.probed_readings:
            loc = tree.sensor(r.sensor_id).location
            # Terminal nodes are fully inside the region, so every probed
            # sensor must be as well (leaf terminals filter by location).
            assert margin.contains_point(loc), loc

    def test_sampling_uses_cache_on_repeat(self, registry):
        tree = make_tree(registry)
        region = Rect(0, 0, 60, 60)
        a1 = tree.query(region, now=0.0, max_staleness=600.0, sample_size=50)
        a2 = tree.query(region, now=1.0, max_staleness=600.0, sample_size=50)
        assert a2.stats.sensors_probed < a1.stats.sensors_probed

    def test_expected_sample_size_with_full_availability(self, registry):
        """Theorem 1 sanity: expected successes ≈ R (no failures here)."""
        sizes = []
        for seed in range(12):
            tree = make_tree(make_registry(n=800, seed=9), network_seed=seed)
            tree.rng = np.random.default_rng(seed)
            answer = tree.query(
                Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=60
            )
            sizes.append(answer.probed_count)
        mean = np.mean(sizes)
        # The availability prior (0.5) inflates targets before history
        # accumulates, so expect >= R on a fully available population.
        assert mean >= 55, sizes


class TestOversampling:
    def test_unavailable_sensors_compensated(self):
        registry = make_registry(n=800, availability=0.5, seed=10)
        tree = make_tree(registry)
        # Warm the availability history so estimates reflect 0.5.
        for t in range(5):
            tree.query(
                Rect(0, 0, 100, 100),
                now=float(t),
                max_staleness=1.0,  # force probes
                sample_size=200,
            )
        answer = tree.query(
            Rect(0, 0, 100, 100), now=100.0, max_staleness=1.0, sample_size=50
        )
        # Probes should be scaled up by roughly 1/0.5 = 2x.
        assert answer.stats.sensors_probed >= 70
        assert answer.probed_count >= 30

    def test_oversampling_disabled_undershoots(self):
        registry = make_registry(n=800, availability=0.4, seed=11)
        cfg = COLRTreeConfig(oversampling_enabled=False, caching_enabled=False)
        tree = make_tree(registry, cfg)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=100
        )
        # Without the 1/a factor, successes track availability (~40%).
        assert answer.probed_count < 70


class TestRedistribution:
    def test_redistribution_improves_target_in_sparse_regions(self):
        """Sensors concentrated in one corner: shares assigned to empty
        children must be redistributed to the dense ones."""
        rng = np.random.default_rng(12)
        from repro import GeoPoint, SensorRegistry

        registry = SensorRegistry()
        # 90% of sensors in [0,20]^2, a few scattered wide.
        for _ in range(450):
            registry.register(
                GeoPoint(float(rng.uniform(0, 20)), float(rng.uniform(0, 20))),
                expiry_seconds=300.0,
            )
        for _ in range(50):
            registry.register(
                GeoPoint(float(rng.uniform(20, 100)), float(rng.uniform(20, 100))),
                expiry_seconds=300.0,
            )
        with_r = make_tree(registry, COLRTreeConfig(caching_enabled=False))
        without_r = make_tree(
            registry, COLRTreeConfig(caching_enabled=False, redistribution_enabled=False)
        )
        target = 80
        got_with = with_r.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=target
        ).probed_count
        got_without = without_r.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=target
        ).probed_count
        assert got_with >= got_without


class TestTerminalRecords:
    def test_terminals_recorded(self, registry):
        tree = make_tree(registry)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=50
        )
        assert answer.terminals
        for record in answer.terminals:
            assert record.target >= 0
            assert record.results >= 0

    def test_cache_terminals_marked(self, registry):
        tree = make_tree(registry)
        region = Rect(0, 0, 100, 100)
        tree.query(region, now=0.0, max_staleness=600.0, sample_size=400)
        answer = tree.query(region, now=1.0, max_staleness=600.0, sample_size=50)
        assert any(t.used_cache for t in answer.terminals)


class TestStatsAccounting:
    def test_processing_latency_positive(self, registry):
        tree = make_tree(registry)
        answer = tree.query(Rect(0, 0, 50, 50), now=0.0, max_staleness=600.0, sample_size=20)
        assert tree.processing_seconds(answer.stats) > 0.0


class TestPolygonSampling:
    def test_sampled_polygon_query(self, registry):
        """Layered sampling accepts polygonal regions: probed sensors
        lie inside the polygon and the target is respected."""
        from repro import GeoPoint, Polygon

        tree = make_tree(registry)
        tri = Polygon([GeoPoint(0, 0), GeoPoint(100, 0), GeoPoint(0, 100)])
        answer = tree.query(tri, now=0.0, max_staleness=600.0, sample_size=30)
        assert answer.probed_count > 0
        for r in answer.probed_readings:
            assert tri.contains_point(tree.sensor(r.sensor_id).location)

    def test_polygon_and_rect_parity(self, registry):
        """A polygon shaped like the rect samples comparably."""
        from repro import Polygon

        rect = Rect(10, 10, 80, 80)
        t1 = make_tree(registry)
        t2 = make_tree(registry)
        a_rect = t1.query(rect, now=0.0, max_staleness=600.0, sample_size=40)
        a_poly = t2.query(
            Polygon(rect.corners()), now=0.0, max_staleness=600.0, sample_size=40
        )
        assert a_poly.probed_count == pytest.approx(a_rect.probed_count, rel=0.5, abs=10)
