import pytest

from repro import Reading
from repro.core.slots import LeafSlotCache, SlotCache, slot_of


def reading(sensor_id=0, value=1.0, timestamp=0.0, lifetime=300.0):
    return Reading(
        sensor_id=sensor_id,
        value=value,
        timestamp=timestamp,
        expires_at=timestamp + lifetime,
    )


def insert(cache, r, fetched_at):
    """File a reading under its expiry slot, as the tree does; returns
    the displaced reading."""
    displaced = cache.put(r, fetched_at, slot_of(r.expires_at, cache.slot_seconds))
    return None if displaced is None else displaced.reading


class TestSlotOf:
    def test_basic_bucketing(self):
        assert slot_of(0.0, 120.0) == 0
        assert slot_of(119.9, 120.0) == 0
        assert slot_of(120.0, 120.0) == 1

    def test_global_alignment(self):
        """Two caches with the same Δ agree on every slot id."""
        for t in (0.0, 59.0, 240.0, 1234.5):
            assert slot_of(t, 60.0) == slot_of(t, 60.0)


class TestLeafSlotCache:
    def test_insert_and_get(self):
        cache = LeafSlotCache(120.0)
        r = reading(sensor_id=7)
        assert insert(cache, r, fetched_at=0.0) is None
        assert len(cache) == 1
        assert cache.get(7).reading == r

    def test_insert_replaces_and_returns_displaced(self):
        cache = LeafSlotCache(120.0)
        old = reading(sensor_id=7, value=1.0, timestamp=0.0)
        new = reading(sensor_id=7, value=2.0, timestamp=100.0)
        insert(cache, old, fetched_at=0.0)
        displaced = insert(cache, new, fetched_at=100.0)
        assert displaced == old
        assert len(cache) == 1
        assert cache.get(7).reading.value == 2.0

    def test_remove_absent_returns_none(self):
        assert LeafSlotCache(120.0).remove(5) is None

    def test_entry_remembers_the_slot_it_is_filed_under(self):
        cache = LeafSlotCache(120.0)
        old = reading(sensor_id=7, timestamp=0.0, lifetime=100.0)
        new = reading(sensor_id=7, timestamp=0.0, lifetime=500.0)
        insert(cache, old, fetched_at=0.0)
        assert cache.get(7).slot == slot_of(100.0, 120.0)
        displaced = cache.put(new, fetched_at=1.0, slot=slot_of(500.0, 120.0))
        assert (displaced.reading, displaced.slot) == (old, slot_of(100.0, 120.0))
        assert cache.slot_readings(slot_of(100.0, 120.0)) == []
        assert cache.slot_readings(slot_of(500.0, 120.0)) == [new]
        removed = cache.remove(7)
        assert (removed.reading, removed.fetched_at, removed.slot) == (
            new, 1.0, slot_of(500.0, 120.0),
        )
        assert len(cache) == 0 and cache.slot_readings(slot_of(500.0, 120.0)) == []

    def test_slot_readings_in_caching_order(self):
        cache = LeafSlotCache(120.0)
        for sensor_id, lifetime in ((9, 130.0), (2, 500.0), (5, 140.0), (1, 150.0)):
            insert(cache, reading(sensor_id=sensor_id, lifetime=lifetime), 0.0)
        insert(cache, reading(sensor_id=9, value=3.0, lifetime=135.0), 1.0)  # re-cached: last
        assert [r.sensor_id for r in cache.slot_readings(1)] == [5, 1, 9]
        assert cache.slot_readings(2) == []

    def test_slot_bookkeeping(self):
        cache = LeafSlotCache(120.0)
        insert(cache, reading(sensor_id=1, timestamp=0.0, lifetime=100.0), 0.0)
        insert(cache, reading(sensor_id=2, timestamp=0.0, lifetime=500.0), 0.0)
        assert [r.sensor_id for r in cache.slot_readings(slot_of(100.0, 120.0))] == [1]
        assert [r.sensor_id for r in cache.slot_readings(slot_of(500.0, 120.0))] == [2]

    def test_fresh_readings_excludes_expired(self):
        cache = LeafSlotCache(120.0)
        insert(cache, reading(sensor_id=1, timestamp=0.0, lifetime=100.0), 0.0)
        insert(cache, reading(sensor_id=2, timestamp=0.0, lifetime=500.0), 0.0)
        fresh = cache.fresh_readings(now=150.0, max_staleness=1000.0)
        assert {r.sensor_id for r in fresh} == {2}

    def test_fresh_readings_excludes_stale(self):
        cache = LeafSlotCache(120.0)
        insert(cache, reading(sensor_id=1, timestamp=0.0, lifetime=500.0), 0.0)
        insert(cache, reading(sensor_id=2, timestamp=90.0, lifetime=500.0), 90.0)
        fresh = cache.fresh_readings(now=100.0, max_staleness=50.0)
        assert {r.sensor_id for r in fresh} == {2}

    def test_boundary_slot_inspected_individually(self):
        cache = LeafSlotCache(120.0)
        # Both land in slot 1 (expiries 130 and 230); at now=200 the
        # first is expired, the second is not.
        insert(cache, reading(sensor_id=1, timestamp=0.0, lifetime=130.0), 0.0)
        insert(cache, reading(sensor_id=2, timestamp=0.0, lifetime=230.0), 0.0)
        fresh = cache.fresh_readings(now=200.0, max_staleness=1000.0)
        assert {r.sensor_id for r in fresh} == {2}

    def test_invalid_slot_seconds(self):
        with pytest.raises(ValueError):
            LeafSlotCache(0.0)


class TestAggregateSlotCache:
    def test_add_and_usable(self):
        cache = SlotCache(120.0)
        cache.add(slot=5, value=10.0, timestamp=500.0)
        cache.add(slot=5, value=20.0, timestamp=510.0)
        sketches = cache.usable_sketches(now=400.0, max_staleness=200.0)
        assert len(sketches) == 1
        assert sketches[0].count == 2

    def test_boundary_slot_not_usable(self):
        cache = SlotCache(120.0)
        cache.add(slot=slot_of(450.0, 120.0), value=1.0, timestamp=440.0)
        assert cache.usable_sketches(now=450.0, max_staleness=1000.0) == []

    def test_stale_aggregate_filtered_by_oldest_timestamp(self):
        cache = SlotCache(120.0)
        cache.add(slot=10, value=1.0, timestamp=100.0)
        cache.add(slot=10, value=2.0, timestamp=900.0)
        # Window of 50s at now=920 excludes the old constituent.
        assert cache.usable_sketches(now=920.0, max_staleness=50.0) == []
        assert len(cache.usable_sketches(now=920.0, max_staleness=900.0)) == 1

    def test_usable_weight(self):
        cache = SlotCache(120.0)
        cache.add(slot=9, value=1.0, timestamp=800.0)
        cache.add(slot=9, value=2.0, timestamp=810.0)
        cache.add(slot=2, value=3.0, timestamp=100.0)  # behind now
        assert cache.usable_weight(now=820.0, max_staleness=600.0) == 2

    def test_remove_and_empty_slot_dropped(self):
        cache = SlotCache(120.0)
        cache.add(slot=4, value=5.0, timestamp=0.0)
        dirty = cache.remove(slot=4, value=5.0)
        assert not dirty
        assert cache.sketch(4) is None

    def test_remove_extreme_reports_dirty(self):
        cache = SlotCache(120.0)
        cache.add(slot=4, value=5.0, timestamp=0.0)
        cache.add(slot=4, value=9.0, timestamp=0.0)
        assert cache.remove(slot=4, value=9.0) is True

    def test_remove_missing_slot_rejected(self):
        with pytest.raises(KeyError):
            SlotCache(120.0).remove(slot=3, value=1.0)

    def test_prune_expired(self):
        cache = SlotCache(120.0)
        cache.add(slot=1, value=1.0, timestamp=0.0)
        cache.add(slot=9, value=1.0, timestamp=0.0)
        assert cache.prune_expired(now=600.0) == 1
        assert cache.sketch(1) is None and cache.sketch(9) is not None

    def test_replace_with_empty_drops(self):
        from repro.core.aggregates import AggregateSketch

        cache = SlotCache(120.0)
        cache.add(slot=3, value=1.0, timestamp=0.0)
        cache.replace(3, AggregateSketch())
        assert cache.sketch(3) is None
