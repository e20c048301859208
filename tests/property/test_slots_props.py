"""Property-based tests of the slot caches."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Reading
from repro.core.slots import LeafSlotCache, SlotCache, slot_of
from tests.conftest import slot_ids


@st.composite
def readings(draw):
    sensor_id = draw(st.integers(min_value=0, max_value=20))
    timestamp = draw(st.floats(min_value=0, max_value=10_000, allow_nan=False))
    lifetime = draw(st.floats(min_value=1, max_value=600, allow_nan=False))
    value = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
    return Reading(
        sensor_id=sensor_id,
        value=value,
        timestamp=timestamp,
        expires_at=timestamp + lifetime,
    )


reading_lists = st.lists(readings(), min_size=0, max_size=40)


def insert(cache: LeafSlotCache, r: Reading) -> None:
    """File a reading under its expiry slot, as the tree does."""
    cache.put(r, r.timestamp, slot_of(r.expires_at, cache.slot_seconds))


def usable(slot: int, now: float, slot_seconds: float) -> bool:
    """Whether an aggregate filed under ``slot`` is served at ``now``."""
    cache = SlotCache(slot_seconds)
    cache.add(slot, 1.0, now)
    return bool(cache.usable_sketches(now, max_staleness=math.inf))


class TestLeafSlotCacheProperties:
    @given(reading_lists)
    def test_one_entry_per_sensor(self, items):
        cache = LeafSlotCache(120.0)
        for r in items:
            insert(cache, r)
        assert len(cache) == len({r.sensor_id for r in items})

    @given(reading_lists)
    def test_newest_reading_wins(self, items):
        cache = LeafSlotCache(120.0)
        last: dict[int, Reading] = {}
        for r in items:
            insert(cache, r)
            last[r.sensor_id] = r
        for sensor_id, expected in last.items():
            assert cache.get(sensor_id).reading == expected

    @given(reading_lists)
    def test_slot_index_consistent(self, items):
        cache = LeafSlotCache(120.0)
        for r in items:
            insert(cache, r)
        listed = set()
        for slot in slot_ids(cache):
            assert isinstance(slot, int)
        for r in (c.reading for c in cache.entries()):
            assert slot_of(r.expires_at, 120.0) in slot_ids(cache)
            listed.add(r.sensor_id)
        assert len(listed) == len(cache)

    @given(
        reading_lists,
        st.floats(min_value=0, max_value=12_000, allow_nan=False),
        st.floats(min_value=0, max_value=1_000, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_fresh_readings_exactly_the_fresh_ones(self, items, now, staleness):
        """fresh_readings must agree with a brute-force filter of the
        cache contents."""
        cache = LeafSlotCache(120.0)
        for r in items:
            insert(cache, r)
        expected = {
            r.sensor_id
            for r in (c.reading for c in cache.entries())
            if r.is_valid_at(now) and now - r.timestamp <= staleness
        }
        # The slot filter may additionally drop *whole expired slots*;
        # it must never drop an unexpired fresh reading nor return a
        # stale one.
        got = {r.sensor_id for r in cache.fresh_readings(now, staleness)}
        assert got == expected

    @given(reading_lists)
    def test_remove_then_absent(self, items):
        cache = LeafSlotCache(120.0)
        for r in items:
            insert(cache, r)
        for sensor_id in {r.sensor_id for r in items}:
            assert cache.remove(sensor_id) is not None
            assert cache.get(sensor_id) is None
        assert len(cache) == 0
        assert slot_ids(cache) == []


class TestAggregateSlotCacheProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=1_000, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_total_weight_counts_every_add(self, adds):
        cache = SlotCache(60.0)
        for slot, value, ts in adds:
            cache.add(slot, value, ts)
        assert sum(cache.sketch(s).count for s in slot_ids(cache)) == len(adds)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_add_remove_roundtrip_empties(self, adds):
        cache = SlotCache(60.0)
        for slot, value in adds:
            cache.add(slot, value, 0.0)
        for slot, value in adds:
            if cache.sketch(slot) is not None:
                cache.remove(slot, value)
        assert slot_ids(cache) == []

    @given(
        st.floats(min_value=1, max_value=600, allow_nan=False),
        st.floats(min_value=0, max_value=10_000, allow_nan=False),
    )
    def test_usable_excludes_boundary_and_past(self, slot_seconds, now):
        cache = SlotCache(slot_seconds)
        boundary = slot_of(now, slot_seconds)
        cache.add(boundary - 1, 1.0, now)
        cache.add(boundary, 1.0, now)
        cache.add(boundary + 1, 1.0, now)
        usable = cache.usable_sketches(now, max_staleness=1e9)
        assert len(usable) == 1


class TestSlotBoundaryProperties:
    """Boundary behaviour of the global slotting scheme: negative
    instants, exact slot edges, and the open-ended usable range."""

    @given(
        st.integers(min_value=-10_000, max_value=10_000),
        # Exactly representable widths so k*Δ carries no rounding —
        # the edge being tested is the slotting scheme's, not floats'.
        st.sampled_from([1.0, 0.5, 7.25, 30.0, 60.0, 120.0, 600.0]),
    )
    def test_exact_edges_start_their_slot(self, k, slot_seconds):
        assert slot_of(k * slot_seconds, slot_seconds) == k
        assert not usable(k, k * slot_seconds, slot_seconds)
        assert usable(k + 1, k * slot_seconds, slot_seconds)

    @given(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        st.floats(min_value=1, max_value=600, allow_nan=False),
    )
    def test_negative_instants_floor_not_truncate(self, instant, slot_seconds):
        slot = slot_of(instant, slot_seconds)
        # Floor semantics, not int() truncation: negative instants round
        # *down*.  The midpoint of the computed slot must map back to it,
        # and the slot below/above must bracket it.
        assert slot_of(slot * slot_seconds + slot_seconds / 2, slot_seconds) == slot
        assert slot_of((slot - 1) * slot_seconds + slot_seconds / 2, slot_seconds) < slot
        if instant < 0:
            assert slot <= 0

    def test_negative_instant_examples(self):
        assert slot_of(-0.5, 120.0) == -1
        assert slot_of(-120.0, 120.0) == -1
        assert slot_of(-120.1, 120.0) == -2
        assert slot_of(-1e-9, 120.0) == -1

    @given(
        st.integers(min_value=-10_000, max_value=10_000),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1, max_value=600, allow_nan=False),
    )
    def test_slot_usable_matches_range(self, slot, now, slot_seconds):
        low = slot_of(now, slot_seconds) + 1
        assert usable(slot, now, slot_seconds) == (slot >= low)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1, max_value=600, allow_nan=False),
    )
    def test_far_future_slots_always_usable(self, now, slot_seconds):
        """The fix for the old ``low + (1 << 31)`` sentinel: no finite
        upper bound may exclude a genuinely future expiry slot."""
        low = slot_of(now, slot_seconds) + 1
        for offset in (0, 1, 2**31, 2**31 + 1, 2**40):
            assert usable(low + offset, now, slot_seconds)

    @given(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        st.floats(min_value=1, max_value=600, allow_nan=False),
    )
    def test_boundary_slot_never_usable(self, now, slot_seconds):
        boundary = slot_of(now, slot_seconds)
        assert not usable(boundary, now, slot_seconds)
        assert not usable(boundary - 1, now, slot_seconds)
        assert usable(boundary + 1, now, slot_seconds)
