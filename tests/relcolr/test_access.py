"""Access methods of the relational COLR-Tree."""

import pytest

from repro import (
    AvailabilityModel,
    COLRTreeConfig,
    Reading,
    Rect,
    SensorNetwork,
)
from repro.relcolr import RelCOLRTree

from tests.conftest import make_registry, within


CFG = COLRTreeConfig(
    fanout=4,
    leaf_capacity=16,
    max_expiry_seconds=600.0,
    slot_seconds=120.0,
)


def make_rel(registry, cfg=CFG):
    network = SensorNetwork(registry.all(), availability_model=AvailabilityModel(), seed=2)
    return RelCOLRTree(registry.all(), cfg, network=network, build_method="str")


def reading_for(sensor, value, timestamp):
    return Reading(
        sensor_id=sensor.sensor_id,
        value=value,
        timestamp=timestamp,
        expires_at=timestamp + sensor.expiry_seconds,
    )


class TestCacheRead:
    def test_empty_cache_reads_nothing(self):
        rel = make_rel(make_registry(n=150, seed=4))
        sketches, readings = rel.cache_read(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0)
        assert sketches == [] and readings == []

    def test_full_coverage_served_as_aggregates(self):
        registry = make_registry(n=150, seed=4)
        rel = make_rel(registry)
        for sensor in registry.all():
            rel.insert_reading(reading_for(sensor, 1.0, 0.0), 0.0)
        sketches, readings = rel.cache_read(Rect(0, 0, 100, 100), now=1.0, max_staleness=600.0)
        # Everything is cached, so the root aggregate covers the query:
        # one weight-complete sketch set, no raw readings.
        assert sum(s.count for s in sketches) == len(registry)
        assert readings == []

    def test_no_double_counting_under_covered_nodes(self):
        registry = make_registry(n=150, seed=4)
        rel = make_rel(registry)
        for sensor in registry.all():
            rel.insert_reading(reading_for(sensor, 1.0, 0.0), 0.0)
        sketches, readings = rel.cache_read(Rect(0, 0, 100, 100), now=1.0, max_staleness=600.0)
        total = sum(s.count for s in sketches) + len(readings)
        assert total == len(registry)

    def test_partial_region_served_from_leaves(self):
        registry = make_registry(n=150, seed=4)
        rel = make_rel(registry)
        for sensor in registry.all():
            rel.insert_reading(reading_for(sensor, 1.0, 0.0), 0.0)
        region = Rect(10, 10, 35, 35)
        sketches, readings = rel.cache_read(region, now=1.0, max_staleness=600.0)
        expected = len(within(registry, region))
        assert sum(s.count for s in sketches) + len(readings) == expected

    def test_staleness_excludes_old_readings(self):
        registry = make_registry(n=150, seed=4)
        rel = make_rel(registry)
        for sensor in registry.all():
            rel.insert_reading(reading_for(sensor, 1.0, 0.0), 0.0)
        sketches, readings = rel.cache_read(
            Rect(0, 0, 100, 100), now=100.0, max_staleness=10.0
        )
        assert sketches == [] and readings == []


class TestSensorSelection:
    def test_zero_target(self):
        rel = make_rel(make_registry(n=150, seed=4))
        assert rel.sensor_selection(Rect(0, 0, 100, 100), 0.0, 600.0, 0) == []

    def test_target_respected_roughly(self):
        rel = make_rel(make_registry(n=300, seed=5))
        picks = rel.sensor_selection(Rect(0, 0, 100, 100), 0.0, 600.0, 30)
        assert 15 <= len(picks) <= 45

    def test_picks_are_unique_and_in_region(self):
        registry = make_registry(n=300, seed=5)
        rel = make_rel(registry)
        region = Rect(0, 0, 50, 50)
        picks = rel.sensor_selection(region, 0.0, 600.0, 25)
        assert len(picks) == len(set(picks))
        for sid in picks:
            assert region.contains_point(next(s for s in registry if s.sensor_id == sid).location)

    def test_cached_sensors_discounted(self):
        registry = make_registry(n=300, seed=5)
        rel = make_rel(registry)
        for sensor in registry.all():
            rel.insert_reading(reading_for(sensor, 1.0, 0.0), 0.0)
        picks = rel.sensor_selection(Rect(0, 0, 100, 100), 1.0, 600.0, 30)
        assert picks == []


class TestEndToEndQuery:
    def test_first_query_probes_second_hits_cache(self):
        registry = make_registry(n=300, seed=6)
        rel = make_rel(registry)
        region = Rect(0, 0, 100, 100)
        a1 = rel.query(region, now=0.0, max_staleness=600.0, sample_size=40)
        assert a1.stats.sensors_probed > 0
        a2 = rel.query(region, now=1.0, max_staleness=600.0, sample_size=40)
        assert a2.stats.sensors_probed < a1.stats.sensors_probed
        assert a2.result_weight > 0

    def test_exact_mode_returns_everything(self):
        registry = make_registry(n=200, seed=6)
        cfg = COLRTreeConfig(
            fanout=4,
            leaf_capacity=16,
            max_expiry_seconds=600.0,
            slot_seconds=120.0,
            sampling_enabled=False,
        )
        network = SensorNetwork(registry.all(), seed=2)
        rel = RelCOLRTree(registry.all(), cfg, network=network, build_method="str")
        region = Rect(0, 0, 50, 50)
        answer = rel.query(region, now=0.0, max_staleness=600.0)
        assert answer.result_weight == len(within(registry, region))

    def test_unknown_sensor_insert_rejected(self):
        rel = make_rel(make_registry(n=50, seed=6))
        with pytest.raises(KeyError):
            rel.insert_reading(
                Reading(sensor_id=9999, value=1.0, timestamp=0.0, expires_at=10.0), 0.0
            )


class TestWorkMetering:
    def test_query_stats_metered(self):
        registry = make_registry(n=300, seed=7)
        rel = make_rel(registry)
        answer = rel.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=30)
        assert answer.stats.nodes_traversed > 0
        assert answer.stats.sensors_probed > 0
        # Warm query consults caches.
        warm = rel.query(Rect(0, 0, 100, 100), now=1.0, max_staleness=600.0, sample_size=30)
        assert warm.stats.cached_nodes_accessed > 0
