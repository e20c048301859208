"""The shard directory: where each query decides who to ask.

One :class:`ShardEntry` per shard records the shard's MBR (over its
sensor locations), its population weight and the sensor types it hosts
— the same ``(bbox, weight)`` summary a COLR-Tree node keeps for its
subtree, kept one level above the trees.  Routing intersects the query
region with the MBRs; target splitting applies Algorithm 1's
overlap-weighted share rule (``w_i * Overlap(BB(i), A)``) across the
routed shards, with deterministic largest-remainder rounding so the
integer shares always sum to the requested target.

A row also holds its shard's sensors, and the directory the fleet's
tile occupancy over them (:attr:`ShardDirectory.occupancy`): the
front-door tiles whose closed rectangles hold an indexed sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.region import Region, region_overlap_fraction
from repro.geometry import Polygon, Rect
from repro.geometry.grid import Cell
from repro.portal.portal import tile_occupancy
from repro.sensors.sensor import Sensor

__all__ = ["ShardDirectory", "ShardEntry", "ShardRoute"]


@dataclass(frozen=True, slots=True)
class ShardEntry:
    """Directory row for one shard."""

    shard_id: int
    mbr: Rect
    weight: int
    sensor_types: frozenset[str]
    # The shard's population the row was made from.
    sensors: tuple[Sensor, ...] = field(repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class ShardRoute:
    """One shard a query scatters to, with its share weight."""

    shard_id: int
    overlap: float
    weight: float  # population x overlap — the share numerator


class ShardDirectory:
    """MBR + weight summaries of every shard, built at partition time.

    ``refresh`` updates rows in place *transactionally*: the complete
    replacement row list is built and validated first, then installed
    with a single reference assignment, so a concurrent reader (a query
    routing mid-rebalance) always sees either the old directory or the
    new one — never a torn mix.  ``version`` counts committed refreshes.
    """

    def __init__(self, groups: Sequence[Sequence[Sensor]]) -> None:
        self.version = 0
        self._entries: list[ShardEntry] = [
            _make_entry(shard_id, sensors)
            for shard_id, sensors in enumerate(groups)
        ]
        # The occupancy of the committed rows, once made.
        self._occupancy: dict[str | None, frozenset[Cell] | None] | None = None

    def refresh(
        self,
        changes: Mapping[int, Sequence[Sensor]],
        drop: Sequence[int] = (),
    ) -> None:
        """Replace/append shard rows and drop trailing shard ids, atomically.

        ``changes`` maps shard id -> its new full sensor population; ids
        beyond the current count append new shards.  ``drop`` removes
        shards, but only from the tail — shard ids must stay dense
        because :meth:`entry` indexes ``_entries`` positionally (callers
        renumber via ``changes`` before dropping).  The new row list is
        fully built and validated before the one-reference-swap commit.
        """
        surviving = len(self._entries) - len(drop)
        if sorted(drop) != list(range(surviving, len(self._entries))):
            raise ValueError(
                f"drop must be the trailing shard ids, got {sorted(drop)!r}"
            )
        new_entries = list(self._entries[:surviving])
        for shard_id, sensors in sorted(changes.items()):
            entry = _make_entry(shard_id, sensors)
            if shard_id < len(new_entries):
                new_entries[shard_id] = entry
            elif shard_id == len(new_entries):
                new_entries.append(entry)
            else:
                raise ValueError(
                    f"shard {shard_id} would leave a gap (have {len(new_entries)})"
                )
        if not new_entries:
            raise ValueError("refresh would leave the directory empty")
        # Commit point: a single reference assignment, never a torn row.
        self._entries = new_entries
        self._occupancy = None
        self.version += 1

    @property
    def occupancy(self) -> dict[str | None, frozenset[Cell] | None]:
        """The fleet's tile occupancy (``portal.tile_occupancy``): per
        sensor type, and under ``None`` over all types, the tiles whose
        closed rectangles hold a sensor of some shard.  It belongs to
        the committed rows — every ``refresh`` commits a new one — and
        is made on the first read after the commit, so a build or a
        membership change pays for it only once a reader asks."""
        if self._occupancy is None:
            self._occupancy = tile_occupancy(
                [s for e in self._entries for s in e.sensors]
            )
        return self._occupancy

    def total_weight(self) -> int:
        """Sum of shard populations — conservation checks compare this
        against the registry size."""
        return sum(e.weight for e in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[ShardEntry]:
        return list(self._entries)

    def entry(self, shard_id: int) -> ShardEntry:
        return self._entries[shard_id]

    def has_type(self, sensor_type: str) -> bool:
        return any(sensor_type in e.sensor_types for e in self._entries)

    def route(
        self, region: Region, sensor_type: str | None = None
    ) -> list[ShardRoute]:
        """The shards a query must scatter to, in shard-id order.

        A single-shard federation always routes to its one shard (there
        is no decision to make, and the pass-through must mirror the
        unsharded portal even on regions outside the fleet's MBR).
        Otherwise a shard is routed when its MBR intersects the region
        and (for typed queries) it hosts the type; the share weight is
        ``population * max(overlap_fraction, eps)``, mirroring
        :func:`repro.core.sampling._child_shares` one level up.
        """
        if len(self._entries) == 1:
            e = self._entries[0]
            if sensor_type is not None and sensor_type not in e.sensor_types:
                return []
            return [ShardRoute(e.shard_id, 1.0, float(e.weight))]
        routes: list[ShardRoute] = []
        for e in self._entries:
            if sensor_type is not None and sensor_type not in e.sensor_types:
                continue
            # Exact intersection gate: a polygonal region whose *bounding
            # box* touches the shard MBR but whose interior never does
            # must get weight 0 (i.e. not be routed at all) instead of a
            # positive bbox-approximated share.
            if not region.intersects_rect(e.mbr):
                continue
            overlap = _shard_overlap(e.mbr, region)
            routes.append(
                ShardRoute(e.shard_id, overlap, e.weight * max(overlap, 1e-12))
            )
        return routes

    def residual_routes(
        self,
        routes: Sequence[ShardRoute],
        achieved: Mapping[int, int],
        exclude: set[int] | frozenset[int] = frozenset(),
    ) -> list[ShardRoute]:
        """Routes reweighted by *remaining pool* for a top-up round.

        Each shard's in-region pool is estimated exactly as the share
        rule estimates it — ``population x overlap`` — minus what the
        shard already delivered this query.  Shards in ``exclude``
        (exhausted / failed / timed out / cooled down) and shards with
        no whole sensor of residual capacity are dropped; the residual
        weight doubles as the integer top-up cap
        (:meth:`split_target_capped`).
        """
        residual: list[ShardRoute] = []
        for route in routes:
            if route.shard_id in exclude:
                continue
            entry = self._entries[route.shard_id]
            pool = int(math.floor(entry.weight * min(1.0, max(route.overlap, 0.0))))
            remaining = pool - int(achieved.get(route.shard_id, 0))
            if remaining < 1:
                continue
            residual.append(ShardRoute(route.shard_id, route.overlap, float(remaining)))
        return residual

    @staticmethod
    def split_target_capped(
        target: int, routes: Sequence[ShardRoute], caps: Mapping[int, int]
    ) -> dict[int, int]:
        """Largest-remainder split bounded by per-shard capacities.

        Allocates exactly ``min(target, total capacity)`` — integer
        conservation up to provable pool exhaustion — without ever
        exceeding a shard's cap.  Water-filling: split the remainder
        proportionally, clamp each share to the shard's headroom, drop
        saturated shards, repeat.  Every iteration either finishes the
        target or saturates at least one shard, so the loop terminates
        within ``len(routes)`` passes.
        """
        if target < 0:
            raise ValueError("target must be non-negative")
        shares = {r.shard_id: 0 for r in routes}
        live = [r for r in routes if caps.get(r.shard_id, 0) > 0]
        remaining = min(target, sum(caps[r.shard_id] for r in live))
        while remaining > 0 and live:
            split = ShardDirectory.split_target(remaining, live)
            for r in live:
                take = min(split[r.shard_id], caps[r.shard_id] - shares[r.shard_id])
                shares[r.shard_id] += take
                remaining -= take
            live = [r for r in live if caps[r.shard_id] > shares[r.shard_id]]
        return shares

    @staticmethod
    def split_target(target: int, routes: Sequence[ShardRoute]) -> dict[int, int]:
        """Split an integer sample target across routes proportionally
        to their weights (largest-remainder rounding; remainder ties go
        to the lower shard id so the split is deterministic).  The
        returned shares sum exactly to ``target``; shards may get 0.
        """
        if target < 0:
            raise ValueError("target must be non-negative")
        if not routes:
            return {}
        total = sum(r.weight for r in routes)
        if total <= 0:
            # Degenerate weights: give everything to the first shard.
            return {routes[0].shard_id: target} | {
                r.shard_id: 0 for r in routes[1:]
            }
        raw = [(r.shard_id, target * r.weight / total) for r in routes]
        shares = {sid: int(x) for sid, x in raw}
        remainder = target - sum(shares.values())
        by_frac = sorted(raw, key=lambda item: (-(item[1] - int(item[1])), item[0]))
        for sid, _ in by_frac[:remainder]:
            shares[sid] += 1
        return shares


def _make_entry(shard_id: int, sensors: Sequence[Sensor]) -> ShardEntry:
    if not sensors:
        raise ValueError(f"shard {shard_id} is empty")
    return ShardEntry(
        shard_id=shard_id,
        mbr=Rect.from_points(s.location for s in sensors),
        weight=len(sensors),
        sensor_types=frozenset(s.sensor_type for s in sensors),
        sensors=tuple(sensors),
    )


def _shard_overlap(mbr: Rect, region: Region) -> float:
    """``Overlap(BB(shard), A)`` with exact polygon geometry.

    Rectangular viewports keep the exact rectangle-overlap fraction.
    Polygonal regions are clipped against the shard MBR
    (Sutherland–Hodgman) so the share weight reflects the area the
    polygon *actually* covers inside the shard, not its bounding box —
    the in-tree sampler still uses the bbox approximation (changing it
    would perturb pinned RNG streams), but at the federation level the
    bbox weights demonstrably mis-split across shard geometries.
    """
    if isinstance(region, Polygon):
        if mbr.area <= 0.0:
            # Point-like shard: all-or-nothing, mirroring
            # Rect.overlap_fraction's degenerate-rectangle rule.
            return 1.0 if region.contains_point(mbr.center) else 0.0
        clipped = region.clip_to_rect(mbr)
        if clipped is None:
            return 0.0
        return min(1.0, clipped.area / mbr.area)
    return region_overlap_fraction(mbr, region)
