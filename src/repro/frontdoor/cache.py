"""The tiered, freshness-aware result cache above the portal.

Two tiers, one freshness semantics:

* **L1 — exact-viewport LRU.**  Keyed on the full query identity
  (region fingerprint, sensor type, zoom level, aggregate, cluster
  distance, sample size, staleness bound).  A hit replays the stored
  ``PortalResult`` verbatim — for sampled queries that is the *same
  draw* the fill produced (no portal RNG is consumed), for exact
  queries it is bit-identical to a warm recompute.
* **L2 — tile cache.**  Exact rectangular and polygon viewports
  decompose into a cover of fixed-extent tiles — cells of the grid in
  :mod:`repro.geometry.grid`, the geoblock cells' grid at another
  extent; per-tile exact answers are cached and composed into covering
  answers (readings deduplicated across shared tile edges).  One hot
  tile then serves every viewport that overlaps it — the CDN-tile
  pattern over slot-cache data.

Validity is *exactly* the slot-cache story, no second freshness regime:

* **slot advancement** — an entry remembers the absolute slot window it
  was filled in; once ``slot_of(now)`` moves past it the entry is
  dropped, the same boundary at which the trees prune expired slots;
* **staleness bound** — an entry remembers the oldest timestamp in its
  answer; it serves only while ``oldest >= now - staleness``, the same
  predicate node sketches pass before being cache-served;
* **write deltas** — ``COLRTree.insert_readings_batch`` ingestion fires
  the tree's ingest listeners with the touched leaves' bounding box and
  every overlapping entry is dropped (a cached answer must never
  outlive the slot-cache state it was computed from); each tier keeps
  a grid index over its entries, so a delta tests only the entries
  near it;
* **index generation** — entries remember the portal's
  ``index_generation``; a ``rebuild_index()`` strands them all.
* **partial answers are never cached** — a killed shard's gaps must not
  survive its revival.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Hashable

from repro.core.plancache import region_fingerprint
from repro.core.slots import slot_of
from repro.frontdoor.config import FrontDoorConfig
from repro.geometry import Polygon, Rect
from repro.geometry.grid import Cell, cell_rect, cells_covering, rasterize
from repro.portal.grouping import GroupView
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery

__all__ = [
    "CacheStats",
    "Raster",
    "TieredResultCache",
    "result_oldest_timestamp",
]

# One request's tile cover: its tiles in scan order, each flagged
# *interior* (the tile lies wholly inside the viewport, so its cached
# answer passes into a compose uncropped).
Raster = list[tuple[Cell, bool]]


def result_oldest_timestamp(result: PortalResult) -> float:
    """The oldest timestamp represented anywhere in an answer —
    readings and cached sketches alike (``+inf`` for an empty answer,
    which never goes stale; writes and slot advancement still
    invalidate it)."""
    oldest = math.inf
    for answer in result.answers:
        for readings in (answer.probed_readings, answer.cached_readings):
            if readings:
                oldest = min(oldest, min(r.timestamp for r in readings))
        if answer.cached_sketches:
            oldest = min(
                oldest, min(s.oldest_timestamp for s in answer.cached_sketches)
            )
    return oldest


@dataclass
class CacheStats:
    """Cumulative cache accounting (hit tiers, misses, and why entries
    left)."""

    lookups: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    misses: int = 0
    stores: int = 0
    tile_stores: int = 0
    uncacheable: int = 0
    l1_evictions: int = 0
    l2_evictions: int = 0
    invalidated_slot: int = 0
    invalidated_stale: int = 0
    invalidated_write: int = 0
    invalidated_generation: int = 0

    @property
    def hits(self) -> int:
        return self.l1_hits + self.l2_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        """Every counter by field name, plus the derived ``hit_rate``."""
        return {**asdict(self), "hit_rate": self.hit_rate}


@dataclass
class _Entry:
    """One cached answer (viewport or tile) plus its validity record."""

    region: Rect
    result: PortalResult
    slot_window: int
    generation: int
    oldest_timestamp: float
    staleness_seconds: float
    # Polygon viewport entries remember the covered-cell union; write
    # invalidation then tests the delta against the cells instead of the
    # (coarser) bounding box, so a write inside the box but outside
    # every covered cell leaves the entry alone.
    cells: tuple[Rect, ...] | None = None

    def overlaps(self, dirty: Rect) -> bool:
        if self.cells is not None:
            return any(cell.intersects(dirty) for cell in self.cells)
        return self.region.intersects(dirty)

    @property
    def reach(self) -> Rect:
        """A rectangle holding every point :meth:`overlaps` can accept
        (a polygon's cells stick out of its bounding box)."""
        return self.region if self.cells is None else Rect.union_of(self.cells)


# A reach of this many tiles or more (the globe is under 2**10 default
# tiles across) is not indexed.
_UNBOUNDED_TILES = 2.0**32


def _cell_span(rect: Rect, extent: float) -> tuple[range, range]:
    """The cells of a grid of side ``extent`` that a closed rectangle
    can share a point with.  ``floor(x / extent)`` is monotone in ``x``,
    so two rectangles that share a point share a cell of their spans —
    whatever the rounding of ``x / extent`` at a cell edge."""
    return (
        range(math.floor(rect.min_x / extent), math.floor(rect.max_x / extent) + 1),
        range(math.floor(rect.min_y / extent), math.floor(rect.max_y / extent) + 1),
    )


class _Store:
    """One tier: an LRU of entries plus a spatial index over them, so
    that a write delta visits the entries near it instead of the whole
    tier.  The index is a stack of grids, level ``k`` with cells of
    ``2**k`` tiles; an entry lives at the lowest level whose cells are
    larger than its reach, where it touches at most 2 x 2 of them — a
    metro-wide viewport costs what a tile costs.  Every mutation goes
    through here, which is what keeps entries and index in step."""

    def __init__(self, tile_extent: float) -> None:
        self.entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._tile_extent = tile_extent
        # (level, ix, iy) -> keys of the entries reaching that cell.
        self._buckets: dict[tuple[int, int, int], set[Hashable]] = {}
        # level -> entries placed at it: the levels a delta must look at.
        self._placed: dict[int, int] = {}
        # Entries with an unbounded reach: tested on every delta.
        self._unbounded: set[Hashable] = set()

    def __len__(self) -> int:
        return len(self.entries)

    def put(self, key: Hashable, entry: _Entry) -> None:
        """Insert, or replace in place (the LRU position is the caller's
        to refresh)."""
        old = self.entries.get(key)
        if old is not None:
            self._unindex(key, old)
        place = self._place(entry)
        if place is None:
            self._unbounded.add(key)
        else:
            level, cells = place
            self._placed[level] = self._placed.get(level, 0) + 1
            for cell in cells:
                self._buckets.setdefault(cell, set()).add(key)
        self.entries[key] = entry

    def drop(self, key: Hashable) -> None:
        self._unindex(key, self.entries.pop(key))

    def drop_oldest(self) -> None:
        self.drop(next(iter(self.entries)))

    def clear(self) -> None:
        self.entries.clear()
        self._buckets.clear()
        self._placed.clear()
        self._unbounded.clear()

    def _place(self, entry: _Entry) -> tuple[int, list[tuple[int, int, int]]] | None:
        """An entry's level and cells (``None``: unbounded) — a function
        of its reach, so it is recomputed when the entry leaves instead
        of stored beside it."""
        reach = entry.reach
        tiles = (reach.width + reach.height) / self._tile_extent
        if not tiles < _UNBOUNDED_TILES:  # inf and nan included
            return None
        # frexp: tiles = m * 2**level with m < 1, so a level-``level``
        # cell is strictly larger than the reach either way.
        level = max(0, math.frexp(tiles)[1])
        xs, ys = _cell_span(reach, self._tile_extent * 2.0**level)
        return level, [(level, ix, iy) for ix in xs for iy in ys]

    def _unindex(self, key: Hashable, entry: _Entry) -> None:
        place = self._place(entry)
        if place is None:
            self._unbounded.discard(key)
            return
        level, cells = place
        self._placed[level] -= 1
        if not self._placed[level]:
            del self._placed[level]
        for cell in cells:
            keys = self._buckets[cell]
            keys.discard(key)
            if not keys:
                del self._buckets[cell]

    def overlapping(self, dirty: Rect) -> list[Hashable]:
        """Keys of the entries a write delta invalidates: the entries
        in the delta's cells at every populated level, put to the exact
        test — or the whole tier, when the delta reaches more cells
        than the tier has entries."""
        entries = self.entries
        near = self._near(dirty)
        return [
            key
            for key in (entries if near is None else near)
            if entries[key].overlaps(dirty)
        ]

    def _near(self, dirty: Rect) -> set[Hashable] | None:
        """What the index holds in a delta's cells, or ``None`` when
        looking would cost more than scanning the tier."""
        if not math.isfinite(dirty.min_x + dirty.min_y + dirty.max_x + dirty.max_y):
            return None
        near = set(self._unbounded)
        budget = len(self.entries)
        for level in self._placed:
            xs, ys = _cell_span(dirty, self._tile_extent * 2.0**level)
            budget -= len(xs) * len(ys)
            if budget < 0:
                return None
            for ix in xs:
                for iy in ys:
                    near.update(self._buckets.get((level, ix, iy), ()))
        return near


@dataclass
class _Composed:
    """An L2 hit: the composed covering answer plus its provenance."""

    result: PortalResult
    tiles: int = 0
    oldest_timestamp: float = math.inf
    regions: list[Rect] = field(default_factory=list)


class TieredResultCache:
    """L1 viewport LRU + L2 tile LRU with shared invalidation rules."""

    def __init__(self, config: FrontDoorConfig, slot_seconds: float) -> None:
        if slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        self.config = config
        self.slot_seconds = slot_seconds
        self.stats = CacheStats()
        self._l1 = _Store(config.tile_extent_degrees)
        self._l2 = _Store(config.tile_extent_degrees)

    # ------------------------------------------------------------------
    # Keys and eligibility
    # ------------------------------------------------------------------
    @staticmethod
    def l1_key(query: SensorQuery) -> Hashable | None:
        """The exact-viewport identity.  ``None`` (unfingerprintable
        region) disables caching for the query — correctness never
        depends on the cache."""
        fp = region_fingerprint(query.region)
        if fp is None:
            return None
        return (
            fp,
            query.sensor_type,
            query.zoom_level,
            query.aggregate,
            query.cluster_miles,
            query.sample_size,
            query.staleness_seconds,
        )

    def tile_key(self, tile: tuple[int, int], query: SensorQuery) -> Hashable:
        return (tile, query.sensor_type, query.staleness_seconds)

    @staticmethod
    def tile_eligible(query: SensorQuery) -> bool:
        """Only exact, ungrouped rectangle and polygon queries compose
        from tiles: sampled answers are RNG draws, and zoom/cluster
        display groups cannot be rebuilt from tile pieces.  A polygon
        viewport composes from the tiles of its covered-cell union
        (interior tiles wholesale, boundary tiles cropped per sensor)."""
        return (
            isinstance(query.region, (Rect, Polygon))
            and query.sample_size in (None, 0)
            and query.zoom_level is None
            and query.cluster_miles is None
        )

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def _valid(self, entry: _Entry, now: float, generation: int) -> str | None:
        """Why an entry can no longer serve, or ``None`` if it can."""
        if entry.generation != generation:
            return "generation"
        if entry.slot_window != slot_of(now, self.slot_seconds):
            return "slot"
        if entry.oldest_timestamp < now - entry.staleness_seconds:
            return "stale"
        return None

    def _get(
        self,
        store: _Store,
        key: Hashable,
        now: float,
        generation: int,
    ) -> _Entry | None:
        entry = store.entries.get(key)
        if entry is None:
            return None
        reason = self._valid(entry, now, generation)
        if reason is not None:
            store.drop(key)
            if reason == "generation":
                self.stats.invalidated_generation += 1
            elif reason == "slot":
                self.stats.invalidated_slot += 1
            else:
                self.stats.invalidated_stale += 1
            return None
        store.entries.move_to_end(key)
        return entry

    # ------------------------------------------------------------------
    # L1
    # ------------------------------------------------------------------
    def get_viewport(
        self, query: SensorQuery, now: float, generation: int
    ) -> PortalResult | None:
        """L1 lookup (does not meter a miss — the caller falls through
        to L2 / the portal and meters the outcome once)."""
        self.stats.lookups += 1
        if self.config.l1_capacity <= 0:
            return None
        key = self.l1_key(query)
        if key is None:
            return None
        entry = self._get(self._l1, key, now, generation)
        if entry is None:
            return None
        self.stats.l1_hits += 1
        return entry.result

    def put_viewport(
        self,
        query: SensorQuery,
        result: PortalResult,
        now: float,
        generation: int,
        raster: Raster | None = None,
    ) -> bool:
        """Store a filled viewport answer.  Partial (degraded) answers
        are refused — a revived shard must never be shadowed by the gap
        it left behind.  A polygon's entry invalidates per covered tile:
        ``raster`` hands in the request's cover (see :meth:`raster`)
        when the lookup already made it; without one, or for a polygon
        that does not compose from tiles, the cover is made here."""
        if self.config.l1_capacity <= 0:
            return False
        key = self.l1_key(query)
        if key is None or getattr(result, "partial", False):
            self.stats.uncacheable += 1
            return False
        region = query.region
        cells: tuple[Rect, ...] | None = None
        if not isinstance(region, Rect):
            cover = raster or self._cover(region)
            if cover:
                cells = tuple(
                    cell_rect(tile, self.config.tile_extent_degrees)
                    for tile, _ in cover
                )
            region = Rect.from_points(region.vertices)
        self._l1.put(
            key,
            _Entry(
                region=region,
                result=result,
                slot_window=slot_of(now, self.slot_seconds),
                generation=generation,
                oldest_timestamp=result_oldest_timestamp(result),
                staleness_seconds=query.staleness_seconds,
                cells=cells,
            ),
        )
        self._l1.entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._l1) > self.config.l1_capacity:
            self._l1.drop_oldest()
            self.stats.l1_evictions += 1
        return True

    # ------------------------------------------------------------------
    # L2 (tiles)
    # ------------------------------------------------------------------
    def raster(self, query: SensorQuery) -> Raster:
        """The tile cover a query composes from, made once per request
        and handed to :meth:`get_tiles` (before and after a fill) and
        :meth:`put_viewport`.  Empty when the query does not compose
        from tiles at all: L2 is off, the query is not
        :meth:`tile_eligible`, or its cover is oversized."""
        if not self.config.l2_enabled or not self.tile_eligible(query):
            return []
        return self._cover(query.region)

    def _cover(self, region: Rect | Polygon) -> Raster:
        """A region's tiles (none if over ``max_tiles_per_cover``).  A
        rectangle's are all interior: the front door serves rectangles
        quantized to their tile union."""
        e = self.config.tile_extent_degrees
        if isinstance(region, Rect):
            cover = [(tile, True) for tile in cells_covering(region, e)]
        else:
            interior, boundary = rasterize(region, e)
            cover = sorted(
                [(tile, True) for tile in interior]
                + [(tile, False) for tile in boundary]
            )
        return cover if len(cover) <= self.config.max_tiles_per_cover else []

    def get_tiles(
        self,
        query: SensorQuery,
        raster: Raster,
        now: float,
        generation: int,
        record: bool = True,
        locate=None,
    ) -> tuple[_Composed | None, list[Cell]]:
        """Try to compose the query's answer from the cached tiles of
        its ``raster``.

        Returns ``(composed, missing_tiles)``: a full compose when every
        covering tile is cached and valid, else ``(None, missing)`` so
        the caller can fill exactly the missing tiles.
        ``(None, [])`` means the query is not tile-composable at all.
        ``record=False`` suppresses the hit counter (the front door's
        re-probe after filling missing tiles is part of a miss, not a
        hit).  ``locate`` (sensor id → location, or ``None`` when the
        backend exposes no coordinator-side registry) is required to
        crop boundary tiles of a polygon viewport; without it polygon
        queries are not composable here.
        """
        if not raster or (locate is None and not isinstance(query.region, Rect)):
            return None, []
        entries: list[tuple[bool, _Entry]] = []
        missing: list[Cell] = []
        for tile, interior in raster:
            entry = self._get(self._l2, self.tile_key(tile, query), now, generation)
            if entry is None:
                missing.append(tile)
            else:
                entries.append((interior, entry))
        if missing:
            return None, missing
        composed = self._compose(query, entries, locate)
        if composed is None:
            return None, []
        if record:
            self.stats.l2_hits += 1
        return composed, []

    def put_tile(
        self,
        tile: tuple[int, int],
        query: SensorQuery,
        result: PortalResult,
        now: float,
        generation: int,
    ) -> bool:
        if getattr(result, "partial", False):
            self.stats.uncacheable += 1
            return False
        self._l2.put(
            self.tile_key(tile, query),
            _Entry(
                region=cell_rect(tile, self.config.tile_extent_degrees),
                result=result,
                slot_window=slot_of(now, self.slot_seconds),
                generation=generation,
                oldest_timestamp=result_oldest_timestamp(result),
                staleness_seconds=query.staleness_seconds,
            ),
        )
        self.stats.tile_stores += 1
        while len(self._l2) > self.config.l2_capacity:
            self._l2.drop_oldest()
            self.stats.l2_evictions += 1
        return True

    def _compose(
        self,
        query: SensorQuery,
        entries: list[tuple[bool, _Entry]],
        locate,
    ) -> _Composed | None:
        """Merge per-tile answers into one exact covering answer.

        Interior tiles (every tile of a rectangle's cover) pass their
        answers wholesale, readings *and* aggregate sketches; boundary
        tiles of a polygon are cropped per sensor via ``locate`` +
        ``contains_point``.  A boundary tile whose cached answer carries
        anonymous node sketches cannot be cropped — the compose reports
        failure (``None``) and the caller falls through to the portal's
        exact polygon path.

        Readings are deduplicated by sensor id (a sensor sitting
        exactly on a shared tile edge answers both tiles' fills); the
        composed answer carries them as *cached* readings — they were
        served from the tile cache, whatever their role at fill time.
        Its display groups are the view over that merged answer,
        resolving sensor locations through the tiles' own views — the
        groups the same viewport gets when executed directly.
        """
        from repro.core.lookup import QueryAnswer

        region = query.region
        merged = QueryAnswer()
        seen: set[int] = set()
        oldest = math.inf
        regions: list[Rect] = []
        for interior, entry in entries:
            if not interior and any(
                answer.cached_sketches for answer in entry.result.answers
            ):
                return None
            regions.append(entry.region)
            oldest = min(oldest, entry.oldest_timestamp)
            for answer in entry.result.answers:
                for reading in chain(answer.probed_readings, answer.cached_readings):
                    if reading.sensor_id in seen:
                        continue
                    if not interior:
                        location = locate(reading.sensor_id)
                        if location is None or not region.contains_point(
                            location
                        ):
                            continue
                    seen.add(reading.sensor_id)
                    merged.cached_readings.append(reading)
                if interior:
                    merged.cached_sketches.extend(answer.cached_sketches)
                    merged.cached_sketch_nodes.extend(
                        answer.cached_sketch_nodes
                    )
        result = PortalResult(
            query=query,
            groups=GroupView.over(
                merged, [entry.result.groups for _, entry in entries]
            ),
            answers=[merged],
            processing_seconds=0.0,
            collection_seconds=0.0,
            sample_requested=None,
        )
        return _Composed(
            result=result,
            tiles=len(entries),
            oldest_timestamp=oldest,
            regions=regions,
        )

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_region(self, dirty: Rect) -> int:
        """Drop every entry overlapping a write delta.  Called from the
        trees' ingest listeners (in-process) or by the front door after
        a probing execution (process backend)."""
        dropped = 0
        for store in (self._l1, self._l2):
            for key in store.overlapping(dirty):
                store.drop(key)
                dropped += 1
        self.stats.invalidated_write += dropped
        return dropped

    def clear(self) -> int:
        """Drop everything (index rebuild / generation change)."""
        dropped = len(self._l1) + len(self._l2)
        self._l1.clear()
        self._l2.clear()
        self.stats.invalidated_generation += dropped
        return dropped

    def __len__(self) -> int:
        return len(self._l1) + len(self._l2)
