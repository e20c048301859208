"""Differential testing: the relational COLR-Tree and the in-memory
COLR-Tree must hold identical cache state under long random mixed
operation sequences (insert / update / expiry / eviction).

The two implementations share the bulk loader (same tree structure by
construction) but maintain their caches through completely different
machinery — dict-based propagation vs relational triggers — so state
agreement after every operation is strong evidence both are right.
"""

import numpy as np
import pytest

from repro import COLRTree, COLRTreeConfig, Reading
from repro.relational import col
from repro.relcolr import RelCOLRTree

from tests.conftest import cached_rows, leaves, make_registry, slot_ids, within


def assert_equal_state(mem: COLRTree, rel: RelCOLRTree):
    assert cached_rows(rel) == mem.cached_reading_count
    # Leaf contents.
    rel_leaf = {
        int(r["sensor_id"]): (float(r["value"]), float(r["expires_at"]))
        for r in rel.db.table(rel.names.leaf_cache).scan()
    }
    mem_leaf = {}
    for leaf in leaves(mem.root):
        assert leaf.leaf_cache is not None
        for reading in (c.reading for c in leaf.leaf_cache.entries()):
            mem_leaf[reading.sensor_id] = (reading.value, reading.expires_at)
    assert rel_leaf == mem_leaf
    # Aggregate sketches per (internal node, slot).
    for node in mem.root.iter_subtree():
        if node.is_leaf:
            continue
        rel_rows = {
            int(r["slot_id"]): r
            for r in rel.db.table(rel.names.cache(node.level)).scan(
                col("node_id") == node.node_id
            )
        }
        mem_slots = {s: node.agg_cache.sketch(s) for s in slot_ids(node.agg_cache)}
        assert set(rel_rows) == set(mem_slots), node.node_id
        for slot, sketch in mem_slots.items():
            row = rel_rows[slot]
            assert int(row["value_count"]) == sketch.count
            assert float(row["value_sum"]) == pytest.approx(sketch.total, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("capacity", [None, 40])
def test_random_sequences_keep_implementations_in_lockstep(seed, capacity):
    registry = make_registry(n=150, seed=seed, expiry_range=(60.0, 600.0))
    config = COLRTreeConfig(
        fanout=4,
        leaf_capacity=16,
        max_expiry_seconds=600.0,
        slot_seconds=120.0,
        cache_capacity=capacity,
    )
    mem = COLRTree(registry.all(), config, build_method="str")
    rel = RelCOLRTree(registry.all(), config, build_method="str")
    rng = np.random.default_rng(seed + 50)
    sensors = registry.all()
    now = 0.0
    for step in range(250):
        now += float(rng.exponential(8.0))
        sensor = sensors[int(rng.integers(len(sensors)))]
        reading = Reading(
            sensor_id=sensor.sensor_id,
            value=float(rng.uniform(-100, 100)),
            timestamp=now,
            expires_at=now + sensor.expiry_seconds,
        )
        mem.insert_reading(reading, fetched_at=now)
        mem._enforce_capacity()
        rel.insert_reading(reading, fetched_at=now)
        if rng.random() < 0.15:
            now += float(rng.exponential(300.0))
            mem._prune_expired(now)
            rel.expire(now)
        if step % 20 == 0:
            # Expiry is lazy in both implementations (the in-memory tree
            # prunes at query time, the relational one on window rolls),
            # so force both to the same boundary before comparing.
            mem._prune_expired(now)
            rel.expire(now)
            assert_equal_state(mem, rel)
    # Final reconciliation after forcing both to the same time.
    mem._prune_expired(now)
    rel.expire(now)
    assert_equal_state(mem, rel)


def test_cache_read_weight_matches_memory_answer():
    """The relational cache-read access method must account for exactly
    the same readings as an in-memory exact lookup served from cache."""
    from repro import Rect

    registry = make_registry(n=150, seed=3)
    config = COLRTreeConfig(
        fanout=4, leaf_capacity=16, max_expiry_seconds=600.0, slot_seconds=120.0
    )
    mem = COLRTree(registry.all(), config, build_method="str")
    rel = RelCOLRTree(registry.all(), config, build_method="str")
    now = 0.0
    for sensor in registry.all():
        reading = Reading(
            sensor_id=sensor.sensor_id,
            value=1.0,
            timestamp=now,
            expires_at=now + sensor.expiry_seconds,
        )
        mem.insert_reading(reading, fetched_at=now)
        rel.insert_reading(reading, fetched_at=now)
    region = Rect(10, 10, 70, 70)
    sketches, readings = rel.cache_read(region, now=1.0, max_staleness=600.0)
    rel_weight = sum(s.count for s in sketches) + len(readings)
    expected = len(within(registry, region))
    assert rel_weight == expected
