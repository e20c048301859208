"""The four maintenance triggers: invariants and in-memory equivalence."""

import pytest

from repro import COLRTree, COLRTreeConfig, Reading
from repro.core.slots import slot_of
from repro.relational import col
from repro.relcolr import RelCOLRTree

from tests.conftest import cached_rows, make_registry, slot_ids


def root_cache_row(rel: RelCOLRTree, slot: int) -> dict | None:
    """The root's aggregate row for one slot in its layer's cache table."""
    return rel.db.table(rel.names.cache(0)).get((rel.root_id, slot))


CFG = COLRTreeConfig(
    fanout=4,
    leaf_capacity=16,
    max_expiry_seconds=600.0,
    slot_seconds=120.0,
)


@pytest.fixture
def pair():
    """An in-memory tree and a relational tree over the same structure."""
    registry = make_registry(n=200, seed=8)
    mem = COLRTree(registry.all(), CFG, build_method="str")
    rel = RelCOLRTree(registry.all(), CFG, build_method="str")
    return registry, mem, rel


def reading_for(sensor, value, timestamp):
    return Reading(
        sensor_id=sensor.sensor_id,
        value=value,
        timestamp=timestamp,
        expires_at=timestamp + sensor.expiry_seconds,
    )


def assert_cache_equivalent(mem: COLRTree, rel: RelCOLRTree):
    """Every internal (node, slot) sketch must agree across the two
    implementations (count / sum / min / max / oldest timestamp)."""
    for node in mem.root.iter_subtree():
        if node.is_leaf or node.agg_cache is None:
            continue
        rel_rows = {
            int(r["slot_id"]): r
            for r in rel.db.table(rel.names.cache(node.level)).scan(
                col("node_id") == node.node_id
            )
        }
        mem_slots = {s: node.agg_cache.sketch(s) for s in slot_ids(node.agg_cache)}
        assert set(rel_rows) == set(mem_slots), (node.node_id, rel_rows, mem_slots)
        for slot, sketch in mem_slots.items():
            row = rel_rows[slot]
            assert int(row["value_count"]) == sketch.count
            assert float(row["value_sum"]) == pytest.approx(sketch.total)
            if not sketch.minmax_dirty:
                assert float(row["value_min"]) == pytest.approx(sketch.minimum)
                assert float(row["value_max"]) == pytest.approx(sketch.maximum)


class TestInsertTriggers:
    def test_single_insert_propagates_to_root(self, pair):
        registry, mem, rel = pair
        sensor = registry.all()[0]
        r = reading_for(sensor, 5.0, 10.0)
        mem.insert_reading(r, fetched_at=10.0)
        rel.insert_reading(r, fetched_at=10.0)
        slot = slot_of(r.expires_at, CFG.slot_seconds)
        root_row = root_cache_row(rel, slot)
        assert root_row is not None
        assert root_row["value_count"] == 1
        assert root_row["value_sum"] == 5.0
        assert_cache_equivalent(mem, rel)

    def test_bulk_inserts_equivalent(self, pair):
        registry, mem, rel = pair
        for i, sensor in enumerate(registry.all()[:80]):
            r = reading_for(sensor, float(i % 7), timestamp=float(i))
            mem.insert_reading(r, fetched_at=float(i))
            rel.insert_reading(r, fetched_at=float(i))
        assert cached_rows(rel) == mem.cached_reading_count
        assert_cache_equivalent(mem, rel)

    def test_update_decrements_equivalent(self, pair):
        registry, mem, rel = pair
        sensor = registry.all()[0]
        r1 = reading_for(sensor, 5.0, 0.0)
        r2 = reading_for(sensor, 9.0, 100.0)
        for t in (mem,):
            t.insert_reading(r1, 0.0)
            t.insert_reading(r2, 100.0)
        rel.insert_reading(r1, 0.0)
        rel.insert_reading(r2, 100.0)
        assert cached_rows(rel) == 1
        assert_cache_equivalent(mem, rel)

    def test_min_max_recompute_on_update(self, pair):
        registry, mem, rel = pair
        sensors = registry.all()[:3]
        t0 = 0.0
        values = (1.0, 5.0, 9.0)
        for sensor, v in zip(sensors, values):
            r = reading_for(sensor, v, t0)
            mem.insert_reading(r, t0)
            rel.insert_reading(r, t0)
        # Replace the max with a mid value.
        r_new = reading_for(sensors[2], 4.0, 50.0)
        mem.insert_reading(r_new, 50.0)
        rel.insert_reading(r_new, 50.0)
        assert_cache_equivalent(mem, rel)


class TestRollTrigger:
    def test_window_slide_expunges_old_slots(self, pair):
        registry, _, rel = pair
        sensors = registry.all()
        rel.insert_reading(reading_for(sensors[0], 1.0, 0.0), 0.0)
        n_before = cached_rows(rel)
        assert n_before == 1
        # Insert far in the future: window slides past the first slot.
        future = 100_000.0
        rel.insert_reading(reading_for(sensors[1], 2.0, future), future)
        assert cached_rows(rel) == 1
        remaining = rel.db.table(rel.names.leaf_cache).scan()
        assert int(remaining[0]["sensor_id"]) == sensors[1].sensor_id

    def test_roll_cleans_aggregates(self, pair):
        registry, _, rel = pair
        sensors = registry.all()
        rel.insert_reading(reading_for(sensors[0], 1.0, 0.0), 0.0)
        old_slot = slot_of(sensors[0].expiry_seconds, CFG.slot_seconds)
        future = 100_000.0
        rel.insert_reading(reading_for(sensors[1], 2.0, future), future)
        assert root_cache_row(rel, old_slot) is None


class TestCapacityEviction:
    def test_capacity_enforced_lrf(self):
        registry = make_registry(n=100, seed=9)
        cfg = COLRTreeConfig(
            fanout=4,
            leaf_capacity=16,
            max_expiry_seconds=600.0,
            slot_seconds=120.0,
            cache_capacity=10,
        )
        rel = RelCOLRTree(registry.all(), cfg, build_method="str")
        for i, sensor in enumerate(registry.all()[:30]):
            rel.insert_reading(reading_for(sensor, 1.0, 0.0), fetched_at=float(i))
        assert cached_rows(rel) <= 10

    def test_aggregates_consistent_after_eviction(self):
        registry = make_registry(n=100, seed=9)
        cfg = COLRTreeConfig(
            fanout=4,
            leaf_capacity=16,
            max_expiry_seconds=600.0,
            slot_seconds=120.0,
            cache_capacity=10,
        )
        rel = RelCOLRTree(registry.all(), cfg, build_method="str")
        for i, sensor in enumerate(registry.all()[:30]):
            rel.insert_reading(reading_for(sensor, float(i), 0.0), fetched_at=float(i))
        # Root count must equal the surviving leaf-cache rows.
        total = 0
        for level in range(rel.n_levels - 1):
            if level == 0:
                rows = rel.db.table(rel.names.cache(0)).scan(
                    col("node_id") == rel.root_id
                )
                total = sum(int(r["value_count"]) for r in rows)
        assert total == cached_rows(rel)
