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
* **write deltas** — a tree's ingestion fires its ingest listeners with
  the sensors it wrote, and every entry whose region holds one of them
  is dropped (:meth:`TieredResultCache.invalidate_sensors`): a cached
  answer depends on exactly the readings of the sensors in its region,
  and must never outlive them.  A rebalance's moved sensors go the same
  way.  Each tier keeps a grid index over its entries, so a delta tests
  only the entries near it, and a tile-aligned entry decides a sensor
  strictly inside a tile by the tile alone;
* **index generation** — entries remember the portal's
  ``index_generation``; a ``rebuild_index()`` strands them all.
* **partial answers are never cached** — a killed shard's gaps must not
  survive its revival.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from itertools import chain, compress
from operator import attrgetter
from typing import Callable, Collection, Container, Hashable, Mapping, Sequence

import numpy as np

from repro.core.aggregates import AggregateSketch
from repro.core.plancache import region_fingerprint
from repro.core.slots import slot_of
from repro.frontdoor.config import FrontDoorConfig
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import (
    TILE_EXTENT_DEGREES,
    Cell,
    Span,
    cell_rect,
    cells_covering,
    cover_span,
    rasterize,
    span_bounds,
)
from repro.portal.grouping import GroupView, _center
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery
from repro.sensors.sensor import Reading, Sensor

__all__ = [
    "CacheStats",
    "Raster",
    "TieredResultCache",
    "result_oldest_timestamp",
    "tile_span",
]

# The L2 tiles are ``grid.TILE_EXTENT_DEGREES`` squares.  At most this
# many tile entries are kept (LRU evicted).  An entry holds a
# :class:`_Tile` record, so its bytes follow its readings:
# ~0.8 kB for an empty tile (validity record, key, LRU slot, index
# buckets; every empty answer shares one record), plus ~0.2 kB of
# record and 8 B a reading and 16 B a sketch when it holds any, and,
# once a polygon has cropped it, 16 B a reading more for its points
# plus one ~0.1 kB array header.  A tile's readings are its own
# sensors', so the count bounds the tier at ~4 MB plus 24 B a sensor
# for each (type, staleness) pair in use.
L2_CAPACITY = 4096
# A viewport covering more tiles than this bypasses the tile layer (a
# whole-country pan would otherwise fan out absurdly).
MAX_TILES_PER_COVER = 64

# One request's tile cover: its tiles in scan order, each flagged
# *interior* (the tile lies wholly inside the viewport, so its cached
# answer passes into a compose uncropped).
Raster = list[tuple[Cell, bool]]

# A write's index cells at one level, within a cell budget (``None``:
# over it, or unbounded — the tier is then scanned instead).
CellsAt = Callable[[int, float], "Collection[Cell] | None"]

# The portal's ``occupied_tiles``: the tiles holding an indexed sensor
# of a type (``None``: any), or ``None`` when that is not known.
Occupied = Callable[[str | None], "Container[Cell] | None"]


def tile_span(rect: Rect) -> Span | None:
    """A rectangle's tile cover as a :data:`~repro.geometry.grid.Span`,
    or ``None`` when it composes from no tiles: unbounded, or over
    :data:`MAX_TILES_PER_COVER`."""
    span = cover_span(rect, TILE_EXTENT_DEGREES)
    if span is None:
        return None
    ix0, iy0, ix1, iy1 = span
    if (ix1 - ix0 + 1) * (iy1 - iy0 + 1) > MAX_TILES_PER_COVER:
        return None
    return span


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
    # Tile-planned misses that could not compose after their fill and
    # were executed whole, by reason: a fill came back partial, a
    # boundary tile's answer could not be cropped to a polygon, or a
    # tile was gone by compose time (dropped by a write or evicted).
    fill_fallbacks_partial: int = 0
    fill_fallbacks_crop: int = 0
    fill_fallbacks_gone: int = 0
    # Tiles of composed answers that the portal's occupancy showed to
    # hold no sensor: composed empty, never filled or stored.
    empty_tiles: int = 0

    @property
    def hits(self) -> int:
        return self.l1_hits + self.l2_hits

    @property
    def fill_fallbacks(self) -> int:
        return (
            self.fill_fallbacks_partial
            + self.fill_fallbacks_crop
            + self.fill_fallbacks_gone
        )

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        """Every counter by field name, plus the derived ``hit_rate``
        and ``fill_fallbacks`` total."""
        return {
            **asdict(self),
            "hit_rate": self.hit_rate,
            "fill_fallbacks": self.fill_fallbacks,
        }


@dataclass(frozen=True, slots=True)
class _Tile:
    """What an L2 entry keeps of its fill's answer: exactly what a
    compose reads.  ``readings`` are every answer's probed then cached
    readings, answer after answer; ``sketches`` and ``sketch_nodes``
    every answer's cached sketches and their nodes; ``sources`` and
    ``centers`` the fill's :meth:`GroupView.locators`.  Every empty
    answer is the one :data:`_EMPTY_TILE`.  ``xy`` stays ``None`` until
    the tile is first cropped (see :meth:`points`)."""

    readings: tuple[Reading, ...]
    sketches: tuple[AggregateSketch, ...]
    sketch_nodes: tuple[int, ...]
    sources: tuple[Mapping, ...]
    centers: tuple[GeoPoint, ...]
    xy: np.ndarray | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def of(result: PortalResult) -> "_Tile":
        answers = result.answers
        readings = tuple(
            chain.from_iterable(
                chain(answer.probed_readings, answer.cached_readings)
                for answer in answers
            )
        )
        sketches = tuple(chain.from_iterable(a.cached_sketches for a in answers))
        if not readings and not sketches:
            return _EMPTY_TILE
        return _Tile(
            readings,
            sketches,
            tuple(chain.from_iterable(a.cached_sketch_nodes for a in answers)),
            *GroupView.locators(result.groups),
        )

    def points(self) -> np.ndarray:
        """Where the readings' sensors sit, as a ``(2, len(readings))``
        float64 array of x then y: each placed through the tile's own
        sources by the rule the composed view places it with
        (``grouping._center``), resolved on the first call and kept —
        16 B a reading, only on tiles a polygon crops."""
        xy = self.xy
        if xy is None:
            sources = self.sources
            where = [_center(sources, r.sensor_id) for r in self.readings]
            xy = np.array([[p.x for p in where], [p.y for p in where]], dtype=np.float64)
            object.__setattr__(self, "xy", xy)
        return xy


_EMPTY_TILE = _Tile((), (), (), (), ())


@dataclass(slots=True)
class _Entry:
    """One cached answer (viewport or tile) plus its validity record."""

    region: Rect
    # An L1 viewport's whole result (a hit replays it verbatim), or an
    # L2 tile's record.
    held: PortalResult | _Tile
    slot_window: int
    generation: int
    oldest_timestamp: float
    staleness_seconds: float
    # Polygon viewport entries remember the covered-cell union; write
    # invalidation then tests the delta against the cells instead of the
    # (coarser) bounding box, so a write inside the box but outside
    # every covered cell leaves the entry alone.
    cells: tuple[Rect, ...] | None = None
    # The tiles whose union the region is (a tile, a quantized viewport,
    # a polygon's cover), or ``None``: a sensor strictly inside a tile
    # is then held exactly when its tile is one of these.
    tiles: tuple[Cell, ...] | None = None
    # The tile columns and rows of the region's reach (see
    # :func:`_columns`; ``None``: unbounded) — where the tier indexes
    # the entry, and what a delta is first tested against.
    span: tuple[int, int, int, int] | None = None
    # An L1 entry's query, which a hit serves as it is (``None`` for a
    # tile).
    query: SensorQuery | None = None

    def holds(self, delta: "_Delta") -> bool:
        """Whether the region holds one of the delta's sensors, closed
        like ``Rect.contains_point`` (a polygon's region is its cells).
        A tile-aligned entry decides a sensor strictly inside its tile
        by the tile alone and tests only the others' points; any other
        entry is a rectangle, which takes a tile strictly inside its
        span wholesale and tests the points of the tiles on its rim."""
        if self.tiles is not None:
            if not delta.inner.isdisjoint(self.tiles):
                return True
            rects = self.cells or (self.region,)
            return any(rect.contains_point(p) for p in delta.odd for rect in rects)
        region = self.region
        if any(map(region.contains_point, delta.strays)):
            return True
        if self.span is None:
            return any(group.meets(region) for group in delta.groups().values())
        c0, r0, c1, r1 = self.span
        for (tx, ty), group in delta.groups().items():
            if c0 <= tx <= c1 and r0 <= ty <= r1:
                # floor(v / extent) is monotone in v: a tile strictly
                # inside the span lies strictly inside the region.
                if (c0 < tx < c1 and r0 < ty < r1) or group.meets(region):
                    return True
        return False


# A reach spanning this many tile columns or more (the globe is under
# 2**10 default tiles across) is not indexed.
_UNBOUNDED_TILES = 2**32


def _columns(rect: Rect, extent: float) -> tuple[int, int, int, int] | None:
    """The tile columns and rows ``floor(v / extent)`` of a rectangle's
    edges, or ``None`` when one is not finite or they span
    ``_UNBOUNDED_TILES`` or more.  The index cell of level ``k`` holding
    column ``c`` is ``c >> k`` — the cell ``floor(v / (extent * 2**k))``
    names too, since scaling by a power of two commutes with rounding,
    but read off the tile column it is monotone in ``v`` by
    construction.  So a rectangle holding a point spans the point's
    tile, and its cell at every level, whatever the rounding of ``v /
    extent`` at a cell edge."""
    qs = (
        rect.min_x / extent,
        rect.min_y / extent,
        rect.max_x / extent,
        rect.max_y / extent,
    )
    if not math.isfinite(sum(qs)):
        return None
    ix0, iy0, ix1, iy1 = map(math.floor, qs)
    if max(ix1 - ix0, iy1 - iy0) >= _UNBOUNDED_TILES:
        return None
    return ix0, iy0, ix1, iy1


def _span_cells(
    span: tuple[int, int, int, int] | None, level: int, limit: float
) -> list[Cell] | None:
    """The level-``level`` index cells of a span of tile columns and
    rows, or ``None`` when there are more than ``limit`` (or the span is
    unbounded)."""
    if span is None:
        return None
    ix0, iy0, ix1, iy1 = (v >> level for v in span)
    if (ix1 - ix0 + 1) * (iy1 - iy0 + 1) > limit:
        return None
    return [(ix, iy) for ix in range(ix0, ix1 + 1) for iy in range(iy0, iy1 + 1)]


class _Group:
    """Written points sharing a tile, and their bounding box (made on
    first use)."""

    __slots__ = ("points", "_box")

    def __init__(self, points: list[GeoPoint]) -> None:
        self.points = points
        self._box: tuple[float, float, float, float] | None = None

    def meets(self, rect: Rect) -> bool:
        """Whether ``rect`` holds one of the points — closed, like
        ``Rect.contains_point``.  A rectangle disjoint from the group's
        box holds none of them and one holding the box holds all of
        them; only a partial overlap tests the points one by one."""
        box = self._box
        if box is None:
            xs = [p.x for p in self.points]
            ys = [p.y for p in self.points]
            box = self._box = (min(xs), min(ys), max(xs), max(ys))
        bx0, by0, bx1, by1 = box
        min_x, min_y, max_x, max_y = rect.min_x, rect.min_y, rect.max_x, rect.max_y
        if max_x < bx0 or bx1 < min_x or max_y < by0 or by1 < min_y:
            return False
        if min_x <= bx0 and bx1 <= max_x and min_y <= by0 and by1 <= max_y:
            return True
        return any(
            min_x <= p.x <= max_x and min_y <= p.y <= max_y for p in self.points
        )


_SENSOR_ID = attrgetter("sensor_id")


class _Delta:
    """A write delta — the sensors a write touched — as the tiers test
    it.  ``tiles``: the tiles its sensors fall in (``floor(v /
    extent)``, the index's level-0 cells); ``inner``: the tiles of the
    sensors lying strictly inside their tile's closed rectangle;
    ``odd``: the locations of the others — on a tile edge, within
    rounding of one, or without a finite tile (``strays``, near every
    entry) — tested point by point.  :meth:`groups` buckets the points
    with a tile by tile, on first use."""

    __slots__ = ("sensors", "tiles", "inner", "odd", "strays", "_tile_of", "_groups")

    def __init__(
        self,
        sensors: Sequence[Sensor],
        tiles: set[Cell],
        inner: set[Cell],
        odd: Sequence[GeoPoint],
        strays: Sequence[GeoPoint],
        tile_of: dict[int, Cell | None],
    ) -> None:
        self.sensors = sensors
        self.tiles = tiles
        self.inner = inner
        self.odd = odd
        self.strays = strays
        self._tile_of = tile_of
        self._groups: dict[Cell, _Group] | None = None

    def cells(self, level: int, limit: float) -> Collection[Cell] | None:
        """The level-``level`` index cells holding the delta's sensors,
        or ``None`` when there are more than ``limit`` or a stray has
        no cell."""
        if self.strays:
            return None
        if level:
            cells = {(ix >> level, iy >> level) for ix, iy in self.tiles}
        else:
            cells = self.tiles
        return None if len(cells) > limit else cells

    def groups(self) -> dict[Cell, _Group]:
        if self._groups is None:
            tile_of = self._tile_of
            by_tile: dict[Cell, list[GeoPoint]] = {}
            for sensor in self.sensors:
                tile = tile_of[sensor.sensor_id]
                if tile is not None:
                    by_tile.setdefault(tile, []).append(sensor.location)
            self._groups = {tile: _Group(points) for tile, points in by_tile.items()}
        return self._groups


class _Store:
    """One tier: an LRU of entries plus a spatial index over them, so
    that a write visits the entries near it instead of the whole tier.
    The index is a stack of grids over the tile grid: level ``k`` has
    cells ``2**k`` tiles wide (see :func:`_columns`).  An entry lives at
    the lowest level whose cells are wider than the span of tile columns
    its reach touches, where it touches at most 2 x 2 of them — a
    metro-wide viewport costs what a tile costs.  Every mutation goes
    through here, which is what keeps entries and index in step."""

    def __init__(self) -> None:
        self.entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        # (level, ix, iy) -> keys of the entries reaching that cell.
        self._buckets: dict[tuple[int, int, int], set[Hashable]] = {}
        # level -> entries placed at it: the levels a write must look at.
        self._placed: dict[int, int] = {}
        # Entries with an unbounded reach: tested on every write.
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

    @staticmethod
    def _place(entry: _Entry) -> tuple[int, list[tuple[int, int, int]]] | None:
        """An entry's level and cells (``None``: unbounded)."""
        span = entry.span
        if span is None:
            return None
        ix0, iy0, ix1, iy1 = span
        # 2**level > the span's width: it meets at most two cells of the
        # level along each axis (a tile, whose closed edge reaches the
        # next column, sits at level 1 with its neighbours).
        level = max(ix1 - ix0, iy1 - iy0).bit_length()
        cells = _span_cells(span, level, math.inf)
        assert cells is not None
        return level, [(level, ix, iy) for ix, iy in cells]

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

    def matching(
        self, cells_at: CellsAt, test: Callable[[_Entry], bool]
    ) -> list[Hashable]:
        """Keys of the entries ``test`` accepts among those near a
        write: the entries indexed in its cells at every populated level
        (``cells_at(level, budget)``), and the unbounded ones.  When the
        cells come back ``None`` — more of them than the tier has
        entries left to look at, or a write with no finite cell — the
        whole tier is tested instead."""
        entries = self.entries
        buckets = self._buckets
        near = set(self._unbounded)
        budget = len(entries)
        for level in self._placed:
            cells = cells_at(level, budget)
            if cells is None:
                return [key for key, entry in entries.items() if test(entry)]
            budget -= len(cells)
            for ix, iy in cells:
                keys = buckets.get((level, ix, iy))
                if keys:
                    near |= keys
        return [key for key in near if test(entries[key])]


@dataclass
class _Composed:
    """An L2 hit: the composed covering answer and how many tiles it
    took."""

    result: PortalResult
    tiles: int


class TieredResultCache:
    """L1 viewport LRU + L2 tile LRU with shared invalidation rules.

    ``occupied`` is the portal's ``occupied_tiles``: a tile it shows to
    hold no sensor of the query's type composes as the empty answer a
    fill of it would return, with no fill and no L2 entry."""

    def __init__(
        self,
        config: FrontDoorConfig,
        slot_seconds: float,
        occupied: Occupied | None = None,
    ) -> None:
        if slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        self.config = config
        self.slot_seconds = slot_seconds
        self.occupied = occupied
        self.stats = CacheStats()
        self._l1 = _Store()
        self._l2 = _Store()
        # Per written sensor, made once: the tile it falls in (``None``:
        # no finite tile), and whether it is *odd* — not strictly inside
        # that tile's rectangle.  A sensor id names one location
        # (``Sensor`` is immutable and a registry never reissues an id),
        # so a write delta is bucketed by dictionary lookups alone.
        self._tile_of: dict[int, Cell | None] = {}
        self._odd: set[int] = set()

    # ------------------------------------------------------------------
    # Keys and eligibility
    # ------------------------------------------------------------------
    @staticmethod
    def l1_key(
        query: SensorQuery, bounds: tuple[float, float, float, float] | None = None
    ) -> Hashable | None:
        """The exact-viewport identity.  ``None`` (unfingerprintable
        region) disables caching for the query — correctness never
        depends on the cache.  ``bounds`` stand in for the region: the
        key is then that of the query over ``Rect(*bounds)``, made
        without building it (the front door's L1 probe of a viewport it
        would quantize)."""
        if bounds is None:
            fp = region_fingerprint(query.region)
            if fp is None:
                return None
        else:
            fp = ("rect", *bounds)
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

    def _entry(
        self,
        region: Rect,
        query: SensorQuery,
        held: PortalResult | _Tile,
        oldest: float,
        now: float,
        generation: int,
        cells: tuple[Rect, ...] | None = None,
        tiles: tuple[Cell, ...] | None = None,
    ) -> _Entry:
        reach = region if cells is None else Rect.union_of(cells)
        return _Entry(
            region=region,
            held=held,
            slot_window=slot_of(now, self.slot_seconds),
            generation=generation,
            oldest_timestamp=oldest,
            staleness_seconds=query.staleness_seconds,
            cells=cells,
            tiles=tiles,
            span=_columns(reach, TILE_EXTENT_DEGREES),
        )

    # ------------------------------------------------------------------
    # L1
    # ------------------------------------------------------------------
    def get_viewport(
        self, key: Hashable | None, now: float, generation: int
    ) -> _Entry | None:
        """L1 lookup by :meth:`l1_key`: the valid entry, whose ``query``
        and ``held`` result a hit serves, or ``None`` (not metered as a
        miss — the caller falls through to L2 / the portal and meters
        the outcome once)."""
        self.stats.lookups += 1
        if self.config.l1_capacity <= 0 or key is None:
            return None
        entry = self._get(self._l1, key, now, generation)
        if entry is not None:
            self.stats.l1_hits += 1
        return entry

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
        when the lookup made one, and ``None`` when it made none (the
        cover is made here).  An empty raster (made, not composable)
        stores the entry without tiles, invalidated by its bounding box;
        so no request rasterizes twice.  A rectangle that is exactly its
        raster's tile union (a quantized viewport) is stored
        tile-aligned."""
        if self.config.l1_capacity <= 0:
            return False
        key = self.l1_key(query)
        if key is None or getattr(result, "partial", False):
            self.stats.uncacheable += 1
            return False
        region = query.region
        e = TILE_EXTENT_DEGREES
        cells: tuple[Rect, ...] | None = None
        tiles: tuple[Cell, ...] | None = None
        if isinstance(region, Rect):
            if raster:
                # A rectangle's raster is a full block in scan order.
                (ix0, iy0), _ = raster[0]
                (ix1, iy1), _ = raster[-1]
                if Rect(*span_bounds((ix0, iy0, ix1, iy1), e)) == region:
                    tiles = tuple(tile for tile, _ in raster)
        else:
            cover = self._cover(region) if raster is None else raster
            if cover:
                tiles = tuple(tile for tile, _ in cover)
                cells = tuple(cell_rect(tile, e) for tile, _ in cover)
            region = Rect.from_points(region.vertices)
        entry = self._entry(
            region, query, result, result_oldest_timestamp(result), now,
            generation, cells, tiles,
        )
        entry.query = query
        self._l1.put(key, entry)
        self._l1.entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._l1) > self.config.l1_capacity:
            self._l1.drop_oldest()
            self.stats.l1_evictions += 1
        return True

    # ------------------------------------------------------------------
    # L2 (tiles)
    # ------------------------------------------------------------------
    def raster(self, query: SensorQuery) -> Raster | None:
        """The tile cover a query composes from, made once per request
        and handed to :meth:`get_tiles` (before and after a fill) and
        :meth:`put_viewport`.  ``None`` when none is made (L2 is off, or
        the query is not :meth:`tile_eligible`); empty when its cover is
        oversized or unbounded."""
        if not self.config.l2_enabled or not self.tile_eligible(query):
            return None
        return self._cover(query.region)

    def _cover(self, region: Rect | Polygon) -> Raster:
        """A region's tiles (none if over :data:`MAX_TILES_PER_COVER`, or
        unbounded).  A rectangle's are all interior: the front door
        serves rectangles quantized to their tile union.  A polygon's
        raster is capped as it is made."""
        e = TILE_EXTENT_DEGREES
        if isinstance(region, Rect):
            if tile_span(region) is None:
                return []
            return [(tile, True) for tile in cells_covering(region, e)]
        cells = rasterize(region, e, MAX_TILES_PER_COVER)
        if cells is None:
            return []
        interior, boundary = cells
        return sorted(
            [(tile, True) for tile in interior] + [(tile, False) for tile in boundary]
        )

    def get_tiles(
        self,
        query: SensorQuery,
        raster: Raster | None,
        now: float,
        generation: int,
        record: bool = True,
    ) -> tuple[_Composed | None, list[Cell]]:
        """Try to compose the query's answer from the cached tiles of
        its ``raster``.

        Returns ``(composed, missing_tiles)``: a full compose when every
        covering tile is cached and valid or holds no sensor, else
        ``(None, missing)`` so the caller can fill exactly the missing
        tiles.  A tile the portal's occupancy shows to be empty is never
        missing: it composes as :data:`_EMPTY_TILE`, what a fill of the
        closed tile would return.
        ``(None, [])`` means the query is not tile-composable at all
        (its raster is ``None`` or empty).
        ``record=False`` suppresses the hit counter (the front door's
        re-probe after filling missing tiles is part of a miss, not a
        hit).
        """
        if not raster:
            return None, []
        occupied = None if self.occupied is None else self.occupied(query.sensor_type)
        tiles: list[tuple[bool, _Tile]] = []
        missing: list[Cell] = []
        empty = 0
        for tile, interior in raster:
            if occupied is not None and tile not in occupied:
                tiles.append((interior, _EMPTY_TILE))
                empty += 1
                continue
            entry = self._get(self._l2, self.tile_key(tile, query), now, generation)
            if entry is None:
                missing.append(tile)
            else:
                tiles.append((interior, entry.held))
        if missing:
            return None, missing
        result = self._compose(query, tiles)
        if result is None:
            return None, []
        if record:
            self.stats.l2_hits += 1
        self.stats.empty_tiles += empty
        return _Composed(result, len(tiles)), []

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
            self._entry(
                cell_rect(tile, TILE_EXTENT_DEGREES),
                query,
                _Tile.of(result),
                result_oldest_timestamp(result),
                now,
                generation,
                tiles=(tile,),
            ),
        )
        self.stats.tile_stores += 1
        while len(self._l2) > L2_CAPACITY:
            self._l2.drop_oldest()
            self.stats.l2_evictions += 1
        return True

    def _compose(
        self,
        query: SensorQuery,
        tiles: list[tuple[bool, _Tile]],
    ) -> PortalResult | None:
        """Merge per-tile records into one exact covering answer.

        Interior tiles (every tile of a rectangle's cover) pass their
        answers wholesale, readings *and* aggregate sketches; boundary
        tiles of a polygon are cropped per sensor, each reading placed
        through its own tile's sources (the fill view's) by the rule the
        composed view places it with — one rule on either backend.  The
        boundary tiles crop together: their points (each tile's
        :meth:`_Tile.points`, resolved once per tile) go through the
        polygon's array predicate in one call.  A boundary tile whose
        cached answer carries anonymous node sketches cannot be cropped
        — the compose reports failure (``None``) and the caller falls
        through to the portal's exact polygon path.

        Readings are deduplicated by sensor id (a sensor sitting
        exactly on a shared tile edge answers both tiles' fills); the
        composed answer carries them as *cached* readings — they were
        served from the tile cache, whatever their role at fill time.
        Its display groups are the view over that merged answer,
        resolving sensor locations through the tiles' own views — the
        groups the same viewport gets when executed directly.
        """
        from repro.core.lookup import QueryAnswer

        cropped = []
        for interior, tile in tiles:
            if not interior:
                if tile.sketches:
                    return None
                if tile.readings:
                    cropped.append(tile.points())
        inside: list[bool] = []
        if cropped:
            xs, ys = np.concatenate(cropped, axis=1)
            inside = query.region.contains_points(xs, ys).tolist()
        merged = QueryAnswer()
        kept = merged.cached_readings
        seen: set[int] = set()
        at = 0
        for interior, tile in tiles:
            readings = tile.readings
            if not interior:
                n = len(readings)
                readings = compress(readings, inside[at : at + n])
                at += n
            for reading in readings:
                if reading.sensor_id not in seen:
                    seen.add(reading.sensor_id)
                    kept.append(reading)
            if interior:
                merged.cached_sketches += tile.sketches
                merged.cached_sketch_nodes += tile.sketch_nodes
        return PortalResult(
            query=query,
            groups=GroupView.over(
                merged, [(tile.sources, tile.centers) for _, tile in tiles]
            ),
            answers=[merged],
            processing_seconds=0.0,
            collection_seconds=0.0,
            sample_requested=None,
        )

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_sensors(self, sensors: Sequence[Sensor]) -> int:
        """Drop every entry whose region holds one of the written
        sensors (closed, like ``Rect.contains_point``; a polygon entry's
        region is its cover cells) — the write delta of an ingestion or
        a rebalance.  The delta is bucketed by tile once for both
        tiers."""
        if not sensors:
            return 0
        delta = self._delta(sensors)
        return self._drop_matching(delta.cells, lambda entry: entry.holds(delta))

    def _drop_matching(self, cells_at: CellsAt, test: Callable[[_Entry], bool]) -> int:
        dropped = 0
        for store in (self._l1, self._l2):
            if store.entries:
                for key in store.matching(cells_at, test):
                    store.drop(key)
                    dropped += 1
        self.stats.invalidated_write += dropped
        return dropped

    def _delta(self, sensors: Sequence[Sensor]) -> _Delta:
        """A write delta bucketed by tile through the per-sensor memo:
        on the common path (every sensor seen before, none odd) three
        passes over its ids, each a C-level ``map``."""
        ids = list(map(_SENSOR_ID, sensors))
        tile_of = self._tile_of
        try:
            tiles = set(map(tile_of.__getitem__, ids))
        except KeyError:
            for sensor in sensors:
                if sensor.sensor_id not in tile_of:
                    self._locate(sensor)
            tiles = set(map(tile_of.__getitem__, ids))
        odd_ids = self._odd
        if odd_ids.isdisjoint(ids):
            return _Delta(sensors, tiles, tiles, (), (), tile_of)
        odd = [sensor for sensor in sensors if sensor.sensor_id in odd_ids]
        inner = {tile_of[s.sensor_id] for s in sensors if s.sensor_id not in odd_ids}
        strays = [s.location for s in odd if tile_of[s.sensor_id] is None]
        tiles.discard(None)
        return _Delta(
            sensors, tiles, inner, [s.location for s in odd], strays, tile_of
        )

    def _locate(self, sensor: Sensor) -> None:
        """Memoize the tile a sensor falls in, and whether it lies
        strictly inside the tile's rectangle (``cell_rect``'s floats):
        a sensor that does is held by exactly the tile-aligned entries
        naming its tile."""
        p = sensor.location
        e = TILE_EXTENT_DEGREES
        try:
            ix, iy = math.floor(p.x / e), math.floor(p.y / e)
        except (OverflowError, ValueError):  # inf or nan: no finite tile
            self._tile_of[sensor.sensor_id] = None
            self._odd.add(sensor.sensor_id)
            return
        self._tile_of[sensor.sensor_id] = (ix, iy)
        if not (ix * e < p.x < (ix + 1) * e and iy * e < p.y < (iy + 1) * e):
            self._odd.add(sensor.sensor_id)
