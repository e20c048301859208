"""Micro-benchmarks of the index's core operations (timings only)."""

import numpy as np
import pytest

from repro import (
    AvailabilityModel,
    COLRTree,
    COLRTreeConfig,
    GeoPoint,
    Reading,
    Rect,
    SensorNetwork,
    SensorRegistry,
)


@pytest.fixture(scope="module")
def warm_tree():
    rng = np.random.default_rng(0)
    registry = SensorRegistry()
    for _ in range(5000):
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(120, 600)),
        )
    model = AvailabilityModel()
    network = SensorNetwork(registry.all(), availability_model=model, seed=1)
    tree = COLRTree(
        registry.all(),
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        network=network,
        availability_model=model,
    )
    tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=2000)
    return registry, tree


def test_bulk_build_5k_sensors(benchmark):
    rng = np.random.default_rng(1)
    registry = SensorRegistry()
    for _ in range(5000):
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=300.0,
        )

    def build():
        return COLRTree(registry.all(), COLRTreeConfig())

    tree = benchmark.pedantic(build, rounds=3, iterations=1)
    assert tree.root.weight == 5000


def test_sampled_query_on_warm_cache(benchmark, warm_tree):
    _, tree = warm_tree
    clock = {"t": 1.0}

    def q():
        clock["t"] += 0.01
        return tree.query(
            Rect(20, 20, 70, 70), now=clock["t"], max_staleness=600.0, sample_size=30
        )

    answer = benchmark(q)
    assert answer.result_weight > 0


def test_exact_query_cold_vs_probe_cost(benchmark, warm_tree):
    _, tree = warm_tree
    clock = {"t": 10.0}

    def q():
        clock["t"] += 0.01
        return tree.query(
            Rect(40, 40, 60, 60), now=clock["t"], max_staleness=600.0, sample_size=0
        )

    answer = benchmark(q)
    assert answer.result_weight > 0


def test_reading_insert_with_propagation(benchmark, warm_tree):
    registry, tree = warm_tree
    sensors = registry.all()
    counter = {"i": 0, "t": 100.0}

    def insert():
        sensor = sensors[counter["i"] % len(sensors)]
        counter["i"] += 1
        counter["t"] += 0.001
        return tree.insert_reading(
            Reading(
                sensor_id=sensor.sensor_id,
                value=1.0,
                timestamp=counter["t"],
                expires_at=counter["t"] + sensor.expiry_seconds,
            ),
            fetched_at=counter["t"],
        )

    ops = benchmark(insert)
    assert ops > 0


def cached_rows(rel) -> int:
    """Raw readings a relational tree holds in its leaf cache table."""
    return len(rel.db.table(rel.names.leaf_cache))


def test_relational_insert_through_triggers(benchmark):
    from repro.relcolr import RelCOLRTree

    rng = np.random.default_rng(2)
    registry = SensorRegistry()
    for _ in range(500):
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=300.0,
        )
    rel = RelCOLRTree(
        registry.all(),
        COLRTreeConfig(
            fanout=4, leaf_capacity=16, max_expiry_seconds=600.0, slot_seconds=120.0
        ),
    )
    sensors = registry.all()
    counter = {"i": 0, "t": 0.0}

    def insert():
        sensor = sensors[counter["i"] % len(sensors)]
        counter["i"] += 1
        counter["t"] += 0.001
        rel.insert_reading(
            Reading(
                sensor_id=sensor.sensor_id,
                value=1.0,
                timestamp=counter["t"],
                expires_at=counter["t"] + 300.0,
            ),
            fetched_at=counter["t"],
        )

    benchmark(insert)
    assert cached_rows(rel) > 0
