"""Cache-maintenance invariants of COLRTree (the trigger analogue)."""

import pytest

from repro import COLRTreeConfig, Reading, Rect
from repro.core.slots import slot_of

from tests.conftest import leaves, make_registry, make_tree, slot_ids


@pytest.fixture
def tree():
    return make_tree(make_registry(n=300, seed=2))


def cached_leaf_count(tree):
    total = 0
    for node in leaves(tree.root):
        if node.leaf_cache is not None:
            total += len(node.leaf_cache)
    return total


def check_aggregate_consistency(tree):
    """Every internal slot sketch must equal the recomputation from its
    children — the invariant all four 'triggers' preserve."""
    for node in tree.root.iter_subtree():
        if node.is_leaf or node.agg_cache is None:
            continue
        for slot in slot_ids(node.agg_cache):
            cached = node.agg_cache.sketch(slot)
            recomputed = tree._recompute_slot(node, slot)
            assert cached.count == recomputed.count, (node.node_id, slot)
            assert cached.total == pytest.approx(recomputed.total)


class TestInsertPropagation:
    def test_insert_reaches_root(self, tree):
        leaf = leaves(tree.root)[0]
        sensor = leaf.sensors[0]
        r = Reading(sensor_id=sensor.sensor_id, value=5.0, timestamp=10.0, expires_at=310.0)
        tree.insert_reading(r, fetched_at=10.0)
        slot = slot_of(310.0, tree.config.slot_seconds)
        assert tree.root.agg_cache.sketch(slot).count == 1
        check_aggregate_consistency(tree)

    def test_insert_ops_counted(self, tree):
        leaf = leaves(tree.root)[0]
        sensor = leaf.sensors[0]
        r = Reading(sensor_id=sensor.sensor_id, value=5.0, timestamp=0.0, expires_at=300.0)
        ops = tree.insert_reading(r, fetched_at=0.0)
        # 1 leaf op + one per ancestor.
        assert ops == 1 + leaf.level

    def test_update_decrements_old_value(self, tree):
        leaf = leaves(tree.root)[0]
        sensor = leaf.sensors[0]
        slot_seconds = tree.config.slot_seconds
        r1 = Reading(sensor_id=sensor.sensor_id, value=5.0, timestamp=0.0, expires_at=300.0)
        r2 = Reading(sensor_id=sensor.sensor_id, value=9.0, timestamp=100.0, expires_at=400.0)
        tree.insert_reading(r1, fetched_at=0.0)
        tree.insert_reading(r2, fetched_at=100.0)
        assert tree.cached_reading_count == 1
        old_slot, new_slot = slot_of(300.0, slot_seconds), slot_of(400.0, slot_seconds)
        assert tree.root.agg_cache.sketch(old_slot) is None or (
            tree.root.agg_cache.sketch(old_slot).count == 0
        )
        assert tree.root.agg_cache.sketch(new_slot).count == 1
        assert tree.root.agg_cache.sketch(new_slot).total == 9.0
        check_aggregate_consistency(tree)

    def test_unknown_sensor_rejected(self, tree):
        r = Reading(sensor_id=10_000, value=1.0, timestamp=0.0, expires_at=100.0)
        with pytest.raises(KeyError):
            tree.insert_reading(r, fetched_at=0.0)

    def test_caching_disabled_is_noop(self):
        reg = make_registry(n=50)
        tree = make_tree(reg, COLRTreeConfig(caching_enabled=False, sampling_enabled=False))
        sensor = reg.all()[0]
        r = Reading(sensor_id=sensor.sensor_id, value=1.0, timestamp=0.0, expires_at=100.0)
        assert tree.insert_reading(r, fetched_at=0.0) == 0
        assert tree.cached_reading_count == 0


class TestMinMaxRecomputation:
    def test_removing_max_recomputes_cleanly(self, tree):
        leaf = leaves(tree.root)[0]
        ids = [s.sensor_id for s in leaf.sensors[:3]]
        for sid, value in zip(ids, (1.0, 5.0, 9.0)):
            tree.insert_reading(
                Reading(sensor_id=sid, value=value, timestamp=0.0, expires_at=300.0),
                fetched_at=0.0,
            )
        # Replace the max (9.0) with a mid value in a different slot.
        tree.insert_reading(
            Reading(sensor_id=ids[2], value=4.0, timestamp=100.0, expires_at=550.0),
            fetched_at=100.0,
        )
        slot = slot_of(300.0, tree.config.slot_seconds)
        sketch = tree.root.agg_cache.sketch(slot)
        assert not sketch.minmax_dirty
        assert sketch.result("max") == 5.0
        check_aggregate_consistency(tree)


class TestExpiryPruning:
    def test_expired_slots_vanish_everywhere(self, tree):
        leaf = leaves(tree.root)[0]
        sensor = leaf.sensors[0]
        tree.insert_reading(
            Reading(sensor_id=sensor.sensor_id, value=1.0, timestamp=0.0, expires_at=200.0),
            fetched_at=0.0,
        )
        assert tree.cached_reading_count == 1
        # Move time far beyond expiry; a query triggers the roll.
        tree.query(Rect(0, 0, 1, 1), now=1000.0, max_staleness=600.0, sample_size=0)
        assert tree.cached_reading_count == 0
        assert len(leaf.leaf_cache) == 0

    def test_unexpired_data_survives_prune(self, tree):
        leaf = leaves(tree.root)[0]
        a, b = leaf.sensors[0], leaf.sensors[1]
        tree.insert_reading(
            Reading(sensor_id=a.sensor_id, value=1.0, timestamp=0.0, expires_at=200.0),
            fetched_at=0.0,
        )
        tree.insert_reading(
            Reading(sensor_id=b.sensor_id, value=2.0, timestamp=0.0, expires_at=5000.0),
            fetched_at=0.0,
        )
        tree._prune_expired(now=1000.0)
        assert tree.cached_reading_count == 1
        assert leaf.leaf_cache.get(b.sensor_id) is not None


class TestCapacityEviction:
    def test_capacity_enforced(self):
        reg = make_registry(n=200, seed=4)
        tree = make_tree(reg, COLRTreeConfig(cache_capacity=50))
        for sensor in reg.all()[:100]:
            tree.insert_reading(
                Reading(
                    sensor_id=sensor.sensor_id,
                    value=1.0,
                    timestamp=0.0,
                    expires_at=0.0 + sensor.expiry_seconds,
                ),
                fetched_at=float(sensor.sensor_id),
            )
        tree._enforce_capacity()
        assert tree.cached_reading_count <= 50
        assert cached_leaf_count(tree) == tree.cached_reading_count
        check_aggregate_consistency(tree)

    def test_eviction_prefers_oldest_slot_lrf(self):
        reg = make_registry(n=64, seed=5)
        tree = make_tree(reg, COLRTreeConfig(cache_capacity=3))
        sensors = reg.all()
        # Three in a far-future slot, one in a near slot: the near-slot
        # (oldest) reading must be the eviction victim.
        for i, lifetime in enumerate((550.0, 560.0, 570.0)):
            tree.insert_reading(
                Reading(
                    sensor_id=sensors[i].sensor_id,
                    value=1.0,
                    timestamp=0.0,
                    expires_at=lifetime,
                ),
                fetched_at=float(i),
            )
        tree.insert_reading(
            Reading(sensor_id=sensors[3].sensor_id, value=1.0, timestamp=0.0, expires_at=130.0),
            fetched_at=99.0,
        )
        tree._enforce_capacity()
        assert tree.cached_reading_count == 3
        evicted_leaf = tree.leaf_for(sensors[3].sensor_id)
        assert evicted_leaf.leaf_cache.get(sensors[3].sensor_id) is None
        check_aggregate_consistency(tree)

    def test_prime_cache_respects_capacity(self):
        reg = make_registry(n=100, seed=6)
        tree = make_tree(reg, COLRTreeConfig(cache_capacity=20))
        readings = [
            Reading(
                sensor_id=s.sensor_id,
                value=1.0,
                timestamp=0.0,
                expires_at=s.expiry_seconds,
            )
            for s in reg.all()
        ]
        tree.insert_readings_batch(readings, fetched_at=0.0)
        assert tree.cached_reading_count <= 20
