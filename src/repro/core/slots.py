"""Sliding slot caches (Section IV-A / IV-B).

A slot cache partitions cached data by **expiry instant**: slot ``s``
holds the readings (or their partial aggregate) whose expiry falls in
``[s*Δ, (s+1)*Δ)``.  Slot ids are *absolute* integers computed from a
shared epoch, which gives the paper's "globally aligned slotting scheme"
for free: every cache in the tree agrees on which slot a reading belongs
to, so per-slot aggregation across levels is well defined and the set of
usable slots for a query can be computed once, before traversal.

Sliding is implicit in the absolute-id scheme: as simulated time passes
the window of live slot ids moves forward, and ids behind the window
(all of whose entries have expired) are pruned lazily.

Freshness note
--------------
The paper's queries bound reading *timestamps* (``S.time BETWEEN
now()-w AND now()``) while slots partition by *expiry*.  With
heterogeneous per-sensor lifetimes an expiry slot does not pin down
timestamps, so every slot additionally tracks its oldest constituent
timestamp; a cached aggregate is used only when that oldest timestamp
provably satisfies the query's freshness bound.  For a fleet of sensors
with similar lifetimes this reduces to the paper's "slots strictly
younger than the query slot" rule, and it is never less correct.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core.aggregates import AggregateSketch
from repro.sensors.sensor import Reading


def slot_of(instant: float, slot_seconds: float) -> int:
    """Absolute slot id of an instant: slot ``s`` covers
    ``[s*Δ, (s+1)*Δ)``."""
    return int(math.floor(instant / slot_seconds))


class CachedReading:
    """A raw reading held in a leaf slot cache, with LRF bookkeeping
    and the expiry slot it is filed under — computed once, when the
    entry is made, and read from here by everything that later unfiles
    or re-aggregates it."""

    __slots__ = ("reading", "fetched_at", "slot")

    def __init__(self, reading: Reading, fetched_at: float, slot: int) -> None:
        self.reading = reading
        self.fetched_at = fetched_at
        self.slot = slot


class LeafSlotCache:
    """Raw-reading cache of a leaf node.

    Holds at most one (the newest) reading per sensor, bucketed into
    expiry slots.  Exposes the operations the tree needs: put with
    replacement (returning the displaced entry so ancestors can
    decrement), removal (the tree's slot registry drives pruning and
    least-recently-fetched eviction through it) and per-query
    fresh-reading lookup.
    """

    def __init__(self, slot_seconds: float) -> None:
        if slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        self.slot_seconds = float(slot_seconds)
        self._by_sensor: dict[int, CachedReading] = {}
        self._slots: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._by_sensor)

    def get(self, sensor_id: int) -> CachedReading | None:
        return self._by_sensor.get(sensor_id)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(
        self, reading: Reading, fetched_at: float, slot: int
    ) -> CachedReading | None:
        """Cache a reading under its expiry ``slot`` (the tree computes
        it once per ingested reading); returns the displaced *entry*,
        whose ``slot`` says where it was filed.  A sensor keeps only its
        newest reading: an *update* displaces the previous value, which
        the caller must decrement out of the ancestor aggregates
        (Section IV-B)."""
        displaced = self.remove(reading.sensor_id)
        self._by_sensor[reading.sensor_id] = CachedReading(reading, fetched_at, slot)
        self._slots.setdefault(slot, set()).add(reading.sensor_id)
        return displaced

    def remove(self, sensor_id: int) -> CachedReading | None:
        """Drop one sensor's cached entry; returns it if present."""
        cached = self._by_sensor.pop(sensor_id, None)
        if cached is None:
            return None
        members = self._slots.get(cached.slot)
        if members is not None:
            members.discard(sensor_id)
            if not members:
                del self._slots[cached.slot]
        return cached

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def fresh_readings(self, now: float, max_staleness: float) -> list[Reading]:
        """All cached readings that are unexpired and within the
        staleness bound at ``now``.

        Entries in slots strictly ahead of ``now`` are unexpired by
        construction; entries in the boundary slot are inspected
        individually, per the paper's lookup rule.
        """
        boundary = slot_of(now, self.slot_seconds)
        out: list[Reading] = []
        for slot, sensor_ids in self._slots.items():
            if slot < boundary:
                continue
            inspect = slot == boundary
            for sensor_id in sensor_ids:
                reading = self._by_sensor[sensor_id].reading
                if inspect and not reading.is_valid_at(now):
                    continue
                if now - reading.timestamp <= max_staleness:
                    out.append(reading)
        return out

    def fresh_sensor_ids(self, now: float, max_staleness: float) -> set[int]:
        """Ids of sensors with a usable cached reading at ``now``."""
        return {r.sensor_id for r in self.fresh_readings(now, max_staleness)}

    def slot_readings(self, slot: int) -> list[Reading]:
        """The readings filed under one slot, in the order they were
        cached (a float fold over them is reproducible; the slot's id
        set has no order to offer)."""
        if slot not in self._slots:
            return []
        return [c.reading for c in self._by_sensor.values() if c.slot == slot]

    def entries(self) -> Iterator[CachedReading]:
        """Every cached entry with its fetch stamp (checkpoint export)."""
        yield from self._by_sensor.values()


class SlotCache:
    """Aggregate slot cache of an internal node.

    One :class:`AggregateSketch` per occupied absolute slot id.  The
    sketches are maintained incrementally by the tree on insert /
    update / evict, and recomputed from the children's same-numbered
    slots when a removal dirties min/max.
    """

    def __init__(self, slot_seconds: float) -> None:
        if slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        self.slot_seconds = float(slot_seconds)
        self._slots: dict[int, AggregateSketch] = {}

    def sketch(self, slot: int) -> AggregateSketch | None:
        return self._slots.get(slot)

    def add(self, slot: int, value: float, timestamp: float) -> None:
        self._slots.setdefault(slot, AggregateSketch()).add(value, timestamp)

    def add_sketch(self, slot: int, delta: AggregateSketch) -> None:
        """Fold a pre-merged delta sketch into a slot in one operation
        (the batched-ingestion analogue of repeated :meth:`add` calls:
        final state is identical, cost is one merge per slot)."""
        if delta.is_empty:
            return
        self._slots.setdefault(slot, AggregateSketch()).merge(delta)

    def remove_bulk(self, slot: int, values: list[float]) -> bool:
        """Decrement many values out of a slot as one grouped delta.

        Equivalent in final state to calling :meth:`remove` once per
        value: count/sum decrement exactly, and the slot goes dirty when
        any removed value may have defined the current min/max (min/max
        cannot tighten between grouped removals, so checking each value
        against the pre-removal extremes matches the sequential
        outcome).  Returns True when the slot needs recomputation.
        """
        sketch = self._slots.get(slot)
        if sketch is None:
            raise KeyError(f"slot {slot} has no cached aggregate")
        if len(values) > sketch.count:
            raise ValueError("cannot remove more values than the sketch holds")
        dirty = any(v <= sketch.minimum or v >= sketch.maximum for v in values)
        sketch.count -= len(values)
        sketch.total -= sum(values)
        if sketch.count == 0:
            del self._slots[slot]
            return False
        if dirty:
            sketch.minmax_dirty = True
        return sketch.minmax_dirty

    def remove(self, slot: int, value: float) -> bool:
        """Decrement a value out of a slot.  Returns True when the slot's
        min/max became dirty and needs recomputation from children."""
        sketch = self._slots.get(slot)
        if sketch is None:
            raise KeyError(f"slot {slot} has no cached aggregate")
        sketch.remove(value)
        if sketch.is_empty:
            del self._slots[slot]
            return False
        return sketch.minmax_dirty

    def replace(self, slot: int, sketch: AggregateSketch) -> None:
        """Overwrite a slot's sketch (recomputation path)."""
        if sketch.is_empty:
            self._slots.pop(slot, None)
        else:
            self._slots[slot] = sketch

    def prune_expired(self, now: float) -> int:
        """Drop aggregates for slots entirely behind ``now``; returns
        the number of slots dropped."""
        boundary = slot_of(now, self.slot_seconds)
        stale = [s for s in self._slots if s < boundary]
        for slot in stale:
            del self._slots[slot]
        return len(stale)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def usable_sketches(self, now: float, max_staleness: float) -> list[AggregateSketch]:
        """Sketches provably valid and fresh for a query at ``now``.

        A sketch qualifies when its slot lies strictly ahead of the slot
        containing ``now`` (all entries unexpired) and its oldest
        constituent timestamp meets the staleness bound.
        """
        boundary = slot_of(now, self.slot_seconds)
        freshness_floor = now - max_staleness
        return [
            sketch
            for slot, sketch in self._slots.items()
            if slot > boundary and sketch.oldest_timestamp >= freshness_floor
        ]

    def usable_weight(self, now: float, max_staleness: float) -> int:
        """Total constituent-reading count across usable sketches — the
        ``|c_i|`` term of Algorithm 1 and the cache-sufficiency weight of
        the sensor-selection access method (Section VI-A)."""
        return sum(s.count for s in self.usable_sketches(now, max_staleness))
