import pytest

from repro import Rect, SensorNetwork
from repro.baselines import FlatCache

from tests.conftest import make_registry, within


@pytest.fixture
def setup():
    registry = make_registry(n=300, seed=14)
    network = SensorNetwork(registry.all(), seed=3)
    return registry, FlatCache(registry.all(), network)


class TestFlatCache:
    def test_cold_query_probes_all_matching(self, setup):
        registry, cache = setup
        region = Rect(0, 0, 50, 50)
        answer = cache.query(region, now=0.0, max_staleness=600.0)
        assert answer.stats.sensors_probed == len(within(registry, region))

    def test_warm_query_served_from_pool(self, setup):
        registry, cache = setup
        region = Rect(0, 0, 50, 50)
        cache.query(region, now=0.0, max_staleness=600.0)
        answer = cache.query(region, now=1.0, max_staleness=600.0)
        assert answer.stats.sensors_probed == 0
        assert answer.result_weight == len(within(registry, region))

    def test_scan_cost_includes_whole_pool_and_directory(self, setup):
        registry, cache = setup
        cache.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0)
        answer = cache.query(Rect(0, 0, 5, 5), now=1.0, max_staleness=600.0)
        # Even a tiny region pays a scan of the full pool + directory.
        assert answer.stats.readings_scanned >= len(registry)

    def test_stale_entries_reprobed(self, setup):
        _, cache = setup
        region = Rect(0, 0, 50, 50)
        first = cache.query(region, now=0.0, max_staleness=600.0)
        later = cache.query(region, now=100.0, max_staleness=30.0)
        assert later.stats.sensors_probed == first.stats.sensors_probed

    def test_expired_entries_dropped(self, setup):
        registry, cache = setup
        region = Rect(0, 0, 100, 100)
        cache.query(region, now=0.0, max_staleness=600.0)
        assert len(cache._pool) > 0
        cache.query(region, now=10_000.0, max_staleness=600.0)
        # All original readings expired (max expiry is 600s).
        for reading, _ in cache._pool.values():
            assert reading.is_valid_at(10_000.0)

    def test_capacity_eviction(self):
        registry = make_registry(n=200, seed=15)
        network = SensorNetwork(registry.all(), seed=3)
        cache = FlatCache(registry.all(), network, cache_capacity=50)
        cache.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0)
        assert len(cache._pool) <= 50

    def test_sample_size_ignored(self, setup):
        registry, cache = setup
        region = Rect(0, 0, 50, 50)
        answer = cache.query(region, now=0.0, max_staleness=600.0, sample_size=5)
        assert answer.stats.sensors_probed == len(within(registry, region))


class TestFactories:
    def test_configs_wired(self):
        from repro import COLRTreeConfig
        from repro.baselines import full_colr_tree, hierarchical_cache, plain_rtree

        registry = make_registry(n=100, seed=16)
        network = SensorNetwork(registry.all(), seed=1)
        cfg = COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0)
        rt = plain_rtree(registry.all(), cfg, network)
        hc = hierarchical_cache(registry.all(), cfg, network)
        ct = full_colr_tree(registry.all(), cfg, network)
        assert not rt.config.caching_enabled and not rt.config.sampling_enabled
        assert hc.config.caching_enabled and not hc.config.sampling_enabled
        assert ct.config.caching_enabled and ct.config.sampling_enabled
