"""Grouped-delta batch maintenance in the relational COLR-Tree.

``RelCOLRTree.insert_readings_batch`` must (a) leave the caches in the
same state as the in-memory tree's grouped-delta ingestion, and (b)
issue exactly one grouped cache statement per touched (ancestor, slot)
instead of the per-row trigger cascade.
"""

import pytest

from repro import COLRTree, COLRTreeConfig, Reading
from repro.core.slots import slot_of
from repro.relcolr import RelCOLRTree

from tests.conftest import cached_rows, make_registry
from tests.relcolr.test_triggers import CFG, assert_cache_equivalent, reading_for


@pytest.fixture
def pair():
    registry = make_registry(n=200, seed=8)
    mem = COLRTree(registry.all(), CFG, build_method="str")
    rel = RelCOLRTree(registry.all(), CFG, build_method="str")
    return registry, mem, rel


class TestBatchEquivalence:
    def test_batch_matches_object_tree_batch(self, pair):
        registry, mem, rel = pair
        readings = [
            reading_for(s, float(i % 11), timestamp=float(i))
            for i, s in enumerate(registry.all()[:120])
        ]
        mem.insert_readings_batch(readings, fetched_at=0.0)
        rel.insert_readings_batch(readings, fetched_at=0.0)
        assert cached_rows(rel) == mem.cached_reading_count
        assert_cache_equivalent(mem, rel)

    def test_batch_matches_per_row_inserts(self, pair):
        registry, _, rel = pair
        twin = RelCOLRTree(registry.all(), CFG, build_method="str")
        readings = [
            reading_for(s, float(i % 7), timestamp=float(i))
            for i, s in enumerate(registry.all()[:60])
        ]
        rel.insert_readings_batch(readings, fetched_at=0.0)
        for r in readings:
            twin.insert_reading(r, fetched_at=0.0)
        for level in range(rel.n_levels - 1):
            a = sorted(
                tuple(sorted(row.items()))
                for row in rel.db.table(rel.names.cache(level)).scan()
            )
            b = sorted(
                tuple(sorted(row.items()))
                for row in twin.db.table(twin.names.cache(level)).scan()
            )
            assert a == b, f"level {level} cache diverged"

    def test_batch_with_displacement_equivalent(self, pair):
        registry, mem, rel = pair
        sensors = registry.all()[:50]
        first = [reading_for(s, 3.0, 0.0) for s in sensors]
        mem.insert_readings_batch(first, fetched_at=0.0)
        rel.insert_readings_batch(first, fetched_at=0.0)
        # Re-probe half with new values/timestamps: the batch DELETE
        # fires one grouped decrement, the INSERT one grouped add.
        second = [
            reading_for(s, float(20 + i), 100.0) for i, s in enumerate(sensors[:25])
        ]
        mem.insert_readings_batch(second, fetched_at=100.0)
        rel.insert_readings_batch(second, fetched_at=100.0)
        assert cached_rows(rel) == mem.cached_reading_count == 50
        assert_cache_equivalent(mem, rel)

    def test_batch_min_max_displacement(self, pair):
        registry, mem, rel = pair
        sensors = registry.all()[:6]
        values = [1.0, 9.0, 5.0, 2.0, 8.0, 4.0]
        batch = [reading_for(s, v, 0.0) for s, v in zip(sensors, values)]
        mem.insert_readings_batch(batch, fetched_at=0.0)
        rel.insert_readings_batch(batch, fetched_at=0.0)
        # Displace both extremes at once; grouped delete must recompute.
        repl = [
            reading_for(sensors[1], 5.5, 50.0),  # was max 9.0
            reading_for(sensors[0], 4.5, 50.0),  # was min 1.0
        ]
        mem.insert_readings_batch(repl, fetched_at=50.0)
        rel.insert_readings_batch(repl, fetched_at=50.0)
        assert_cache_equivalent(mem, rel)

    def test_empty_batch_is_noop(self, pair):
        _, _, rel = pair
        rel.insert_readings_batch([], fetched_at=0.0)
        assert cached_rows(rel) == 0
        assert rel.maintenance.grouped_rows == 0

    def test_last_wins_duplicate_sensor(self, pair):
        registry, mem, rel = pair
        s = registry.all()[0]
        batch = [reading_for(s, 1.0, 0.0), reading_for(s, 2.0, 10.0)]
        mem.insert_readings_batch(batch, fetched_at=10.0)
        rel.insert_readings_batch(batch, fetched_at=10.0)
        assert cached_rows(rel) == mem.cached_reading_count == 1
        assert_cache_equivalent(mem, rel)


class TestStatementCounting:
    def test_one_statement_per_ancestor_slot(self, pair):
        registry, _, rel = pair
        readings = [
            reading_for(s, 1.0, timestamp=float(i))
            for i, s in enumerate(registry.all()[:80])
        ]
        rel.insert_readings_batch(readings, fetched_at=0.0)
        # Count the distinct (ancestor, slot) groups the batch touches.
        groups = set()
        for r in readings:
            slot = slot_of(r.expires_at, CFG.slot_seconds)
            for anc_id, anc_level in _ancestor_chain(rel, r.sensor_id):
                groups.add((anc_id, anc_level, slot))
        assert rel.maintenance.grouped_statements == len(groups)
        assert rel.maintenance.grouped_rows == len(readings)

    def test_grouped_beats_cascade(self, pair):
        registry, _, rel = pair
        twin = RelCOLRTree(registry.all(), CFG, build_method="str")
        readings = [
            reading_for(s, 1.0, timestamp=float(i))
            for i, s in enumerate(registry.all()[:120])
        ]
        rel.insert_readings_batch(readings, fetched_at=0.0)
        for r in readings:
            twin.insert_reading(r, fetched_at=0.0)
        # The cascade issues one statement per (row, ancestor); the
        # grouped path one per (ancestor, slot) — strictly fewer here
        # because many sensors share ancestors and slots.
        cascade_statements = sum(
            len(list(_ancestor_chain(twin, r.sensor_id))) for r in readings
        )
        assert rel.maintenance.grouped_statements < cascade_statements
        assert twin.maintenance.grouped_statements == 0

    def test_single_row_batch_uses_per_row_path(self, pair):
        registry, mem, rel = pair
        r = reading_for(registry.all()[0], 5.0, 10.0)
        mem.insert_readings_batch([r], fetched_at=10.0)
        rel.insert_readings_batch([r], fetched_at=10.0)
        assert rel.maintenance.grouped_statements == 0
        assert_cache_equivalent(mem, rel)


def _ancestor_chain(rel: RelCOLRTree, sensor_id: int):
    leaf_id = int(rel.db.table(rel.names.sensors).get((sensor_id,))["leaf_id"])
    return rel.maintenance._ancestors_of(rel.db, leaf_id)
