"""The portal front door: cache-first serving above any portal.

``FrontDoor`` wraps a :class:`~repro.portal.portal.SensorMapPortal` or a
:class:`~repro.federation.federated.FederatedPortal` (either backend)
and serves viewport queries cache-first:

1. eligible rectangular viewports are **quantized** to their covering
   tile union (the map-UI contract: the client renders tiles and
   crops), so jittered viewports of one hotspot share entries;
2. the **L1** exact-viewport LRU is probed — keyed from the raw
   request's fields and its tile bounds, so a hit builds no quantized
   query and serves the one its entry stored — then the **L2** tile
   cache composed (a polygon's boundary tiles cropped through each
   tile's own fill view, on either backend); a hit costs microseconds
   of modeled time instead of a portal execution.  A tile that holds no
   indexed sensor — the portal's ``occupied_tiles`` says so — is never
   filled: it composes as the empty answer its fill would return, so a
   request whose missing tiles are all empty is an L2 hit;
3. misses take one miss path, whether they arrive one by one
   (``execute``) or as a batch (``execute_batch``): every distinct
   missing tile and every other miss, rectangle or polygon, run as one
   portal batch (shared traversals; a lone query is the portal's
   ``execute``, its batch of one; the portal's executor plans an exact
   polygon on its geoblock grid), tile-planned queries compose from the
   filled tiles — and the full answers (never partial ones) are stored
   for the next viewer.

Invalidation is wired, not polled.  A write delta is the sensors a
write touched: the front door registers an ingest listener on every
in-process tree, and an ingestion drops exactly the entries whose
region holds one of the sensors it wrote — so a viewport's own tile
fill, which writes only the sensors of the tiles it fills, no longer
drops the viewport's already-cached tiles from under its compose.  The
writes of one of the front door's own portal calls are one delta,
invalidated as the call returns; a committed rebalance's moved sensors
are one more.  Every entry is also keyed on the portal's
``index_generation``, so a rebuild strands the lot.  On the
process-backend federation the trees — and their writes: each worker
owns its shard and its WAL — live in the workers, where the front door
cannot listen, and replies do not carry their written sensor ids yet;
its caches are invalidated by generation and slot advancement.

Admission control (:class:`~repro.frontdoor.admission.AdmissionController`)
rides along for the open-loop harness; ``execute`` applies it when
given a tenant, ``execute_batch`` leaves arrival-time admission to the
serving loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.frontdoor.admission import AdmissionController
from repro.frontdoor.cache import (
    TILE_EXTENT_DEGREES,
    Raster,
    TieredResultCache,
    tile_span,
)
from repro.frontdoor.config import FrontDoorConfig
from repro.geometry import Rect
from repro.geometry.grid import Cell, cell_rect, span_bounds
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery

__all__ = ["FrontDoor", "FrontDoorBatchResult", "FrontDoorResult"]

# Modeled serving cost of a cache hit: an L1 hit costs a lookup; an L2
# hit costs the lookup plus one compose step per tile.  Both are orders
# of magnitude below a portal execution, which is the point of the tier.
L1_HIT_SECONDS = 250e-6
L2_TILE_COMPOSE_SECONDS = 50e-6

# A request the cache could not serve: the quantized query, its tile
# raster (``None`` when none was made, empty when made and not
# tile-composable) and the tiles still missing.
_Miss = tuple[SensorQuery, Raster | None, list[Cell]]


@dataclass
class FrontDoorResult:
    """One request's outcome at the front door.

    ``status`` is ``"served"`` or an admission verdict (``"shed_rate"``
    / ``"shed_queue"`` — then ``result`` is ``None``); ``served_from``
    is ``"l1"``, ``"l2"`` or ``"portal"``; ``service_seconds`` is the
    modeled serving cost (hit cost for cache hits, portal end-to-end
    for misses).
    """

    query: SensorQuery
    status: str
    served_from: str | None
    result: PortalResult | None
    service_seconds: float
    tiles_composed: int = 0

    @property
    def served(self) -> bool:
        return self.status == "served"

    @property
    def cache_hit(self) -> bool:
        return self.served_from in ("l1", "l2")


@dataclass
class FrontDoorBatchResult:
    """A batch's outcomes plus the modeled makespan of serving it (one
    shared portal batch for every miss, hit costs on top)."""

    results: list[FrontDoorResult]
    service_seconds: float


class FrontDoor:
    def __init__(self, portal, config: FrontDoorConfig | None = None) -> None:
        self.portal = portal
        self.config = config if config is not None else FrontDoorConfig()
        self.cache = TieredResultCache(
            self.config, portal.config.slot_seconds, portal.occupied_tiles
        )
        self.admission = AdmissionController(self.config.admission)
        self._attached_generation = -1
        # The sensors written while one of our own portal calls runs:
        # nothing reads the cache until it returns, so its writes are
        # one delta, invalidated as it returns (``None``: not inside
        # such a call, a write is invalidated as it lands).
        self._written: list | None = None
        # A live rebalance replaces shard trees without bumping the
        # index generation (so the cache survives the membership change
        # wholesale); it notifies us instead, and we drop only the
        # entries holding a moved sensor and re-attach ingest listeners
        # to the staged trees.
        listeners = getattr(portal, "rebalance_listeners", None)
        if listeners is not None:
            listeners.append(self._on_rebalance)

    # ------------------------------------------------------------------
    # Invalidation wiring
    # ------------------------------------------------------------------
    def _on_ingest(self, sensors) -> None:
        """A write delta (the sensors a tree ingestion wrote, or a
        rebalance moved): only entries holding one of them drop."""
        if self._written is not None:
            self._written.extend(sensors)
        else:
            self.cache.invalidate_sensors(sensors)

    def _portal_call(self, call, arg):
        """``call(arg)`` on the portal, its writes invalidated as one
        delta when it returns."""
        self._written = []
        try:
            return call(arg)
        finally:
            written, self._written = self._written, None
            self.cache.invalidate_sensors(written)

    def _on_rebalance(self, moved) -> None:
        """A committed membership change is a write delta of the moved
        sensors: everything else stays warm (the point of rebalancing
        over a rebuild)."""
        self._attached_generation = -1  # staged trees need listeners
        self._on_ingest(moved)

    def _local_trees(self) -> list:
        """The trees held in this process — none for shards that live
        in worker processes (nothing here to listen on, and no
        coordinator write path to miss)."""
        portal = self.portal
        if hasattr(portal, "_trees"):
            return list(portal._trees.values())
        if hasattr(portal, "shards"):
            return [
                tree for shard in portal.shards() for tree in shard._trees.values()
            ]
        return []

    def _cache_generation(self) -> int | None:
        """The generation to validate cache entries against, or ``None``
        when the cache must be bypassed (index dirty: the next execution
        rebuilds and bumps the generation, so serving old entries now
        would resurrect a stale build)."""
        if getattr(self.portal, "_index_dirty", False):
            return None
        generation = getattr(self.portal, "index_generation", 0)
        if generation != self._attached_generation:
            # rebuild_index() creates fresh trees; re-register on them.
            for tree in self._local_trees():
                if self._on_ingest not in tree.ingest_listeners:
                    tree.ingest_listeners.append(self._on_ingest)
            self._attached_generation = generation
        return generation

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def _tile_serveable(self, query: SensorQuery) -> bool:
        """Tile-composable here: the cache's eligibility plus an
        uncapped portal (a collection cap would demote per-tile exact
        sub-queries to sampling)."""
        return (
            self.cache.tile_eligible(query)
            and self.portal.max_sensors_per_query is None
        )

    def _tile_bounds(
        self, query: SensorQuery
    ) -> tuple[float, float, float, float] | None:
        """The bounds of the tile union an eligible rectangular viewport
        quantizes to, or ``None`` when the request is served as drawn: a
        polygon (it quantizes at the L2 layer, where boundary tiles are
        cropped per sensor at compose time, so there is no coarser region
        to rewrite it to), or a rectangle without a tile cover
        (unbounded, or over ``MAX_TILES_PER_COVER``)."""
        if not isinstance(query.region, Rect) or not self._tile_serveable(query):
            return None
        span = tile_span(query.region)
        return None if span is None else span_bounds(span, TILE_EXTENT_DEGREES)

    def quantize(self, query: SensorQuery) -> SensorQuery:
        """Expand an eligible rectangular viewport to its covering tile
        union.  Applied before caching *and* before execution, on the
        cached and uncached configurations alike — quantization is the
        serving contract, not a cache trick, so cache-on/cache-off
        comparisons stay apples-to-apples.
        """
        bounds = self._tile_bounds(query)
        return query if bounds is None else replace(query, region=Rect(*bounds))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute(
        self,
        query: SensorQuery,
        tenant: object | None = None,
        queue_depth: int = 0,
    ) -> FrontDoorResult:
        """Serve one request cache-first.  With a ``tenant``, admission
        runs first and a shed request never touches cache or portal.  A
        miss takes :meth:`execute_batch`'s miss path, as a batch of one."""
        now = self.portal.clock.now()
        if tenant is not None:
            verdict = self.admission.offer(tenant, now, queue_depth)
            if verdict != "admit":
                return FrontDoorResult(query, verdict, None, None, 0.0)
        generation = self._cache_generation()
        hit, miss = self._lookup(query, now, generation)
        if hit is not None:
            return hit
        return self._serve_misses([miss], now, generation)[0][0]

    def execute_batch(self, queries: list[SensorQuery]) -> FrontDoorBatchResult:
        """Serve a batch cache-first with ONE portal batch for every
        miss: direct misses and all distinct missing tiles share the
        portal's batched traversals.  Admission is the serving loop's
        job (arrival time, live queue depth), not this method's."""
        now = self.portal.clock.now()
        generation = self._cache_generation()
        results: list[FrontDoorResult | None] = []
        misses: list[_Miss] = []
        for query in queries:
            hit, miss = self._lookup(query, now, generation)
            results.append(hit)
            if miss is not None:
                misses.append(miss)
        served, service = self._serve_misses(misses, now, generation)
        served_iter = iter(served)
        final = [r if r is not None else next(served_iter) for r in results]
        hit_cost = sum(r.service_seconds for r in final if r.cache_hit)
        return FrontDoorBatchResult(final, service + hit_cost)

    def _lookup(
        self, query: SensorQuery, now: float, generation: int | None
    ) -> tuple[FrontDoorResult | None, "_Miss | None"]:
        """The cache ladder for one request: the L1 viewport entry, then
        the L2 tile composition (promoted to L1 so the next identical
        viewport hits there).  L1 is probed with the key of the
        quantized query, made from the request and its tile bounds; a
        hit serves the quantized query its entry stored, so the query is
        quantized only past L1.  Returns the served hit, or the miss:
        the quantized query, its raster (``None``: not made, the query
        is not tile-serveable here; empty: made, not composable) and the
        tiles of it still missing.  ``generation=None``
        bypasses the cache, and the miss is not counted."""
        if generation is None:
            return None, (self.quantize(query), None, [])
        key = self.cache.l1_key(query, self._tile_bounds(query))
        entry = self.cache.get_viewport(key, now, generation)
        if entry is not None:
            served = FrontDoorResult(
                entry.query, "served", "l1", entry.held, L1_HIT_SECONDS
            )
            return served, None
        q = self.quantize(query)
        raster = self.cache.raster(q) if self._tile_serveable(q) else None
        composed, missing = self.cache.get_tiles(q, raster, now, generation)
        if composed is None:
            self.cache.stats.misses += 1
            return None, (q, raster, missing)
        self.cache.put_viewport(q, composed.result, now, generation, raster)
        served = FrontDoorResult(
            q,
            "served",
            "l2",
            composed.result,
            L1_HIT_SECONDS + composed.tiles * L2_TILE_COMPOSE_SECONDS,
            tiles_composed=composed.tiles,
        )
        return served, None

    def _serve_misses(
        self, misses: "list[_Miss]", now: float, generation: int | None
    ) -> tuple[list[FrontDoorResult], float]:
        """The one miss path: misses without missing tiles (rectangles
        and polygons alike — the portal decides how to answer a polygon)
        and every distinct missing tile run as ONE portal batch;
        tile-planned queries then compose from the filled cache.  A
        tile-planned query that cannot compose falls back to the
        portal's ``execute`` (counted in ``CacheStats.fill_fallbacks``
        by reason) and is charged the fill it waited for plus its own
        execution.  Direct answers are stored as viewports; partial
        answers never are.  Returns the served results in order and the
        modeled makespan."""
        direct: list[int] = []
        fills: dict = {}  # tile cache key -> (tile, exemplar query)
        for i, (q, _, missing) in enumerate(misses):
            if missing:
                for tile in missing:
                    fills.setdefault(self.cache.tile_key(tile, q), (tile, q))
            else:
                direct.append(i)
        portal_queries = [misses[i][0] for i in direct]
        if fills:
            portal_queries += [
                replace(q, region=cell_rect(tile, TILE_EXTENT_DEGREES))
                for tile, q in fills.values()
            ]
        results: list[FrontDoorResult | None] = [None] * len(misses)
        service = 0.0
        partial_fills: set = set()
        if portal_queries:
            answered, service = self._portal_batch(portal_queries)
            for i, result in zip(direct, answered):
                results[i] = self._served_directly(misses[i], result)
            for key, result in zip(fills, answered[len(direct) :]):
                if getattr(result, "partial", False):
                    partial_fills.add(key)
                elif generation is not None:
                    tile, q = fills[key]
                    self.cache.put_tile(tile, q, result, now, generation)
        portal_service = service
        stats = self.cache.stats
        for i, (q, raster, _) in enumerate(misses):
            if results[i] is not None:
                continue
            composed, missing = self.cache.get_tiles(
                q, raster, now, generation, record=False
            )
            if composed is None:
                if not missing:
                    stats.fill_fallbacks_crop += 1
                elif any(self.cache.tile_key(t, q) in partial_fills for t in missing):
                    stats.fill_fallbacks_partial += 1
                else:
                    stats.fill_fallbacks_gone += 1
                result = self._portal_call(self.portal.execute, q)
                service += result.end_to_end_seconds
                results[i] = self._served_directly(misses[i], result, portal_service)
                continue
            self.cache.put_viewport(q, composed.result, now, generation, raster)
            compose_cost = composed.tiles * L2_TILE_COMPOSE_SECONDS
            service += compose_cost
            results[i] = FrontDoorResult(
                q,
                "served",
                "portal",
                composed.result,
                portal_service + compose_cost,
                tiles_composed=composed.tiles,
            )
        return results, service

    def _portal_batch(
        self, queries: list[SensorQuery]
    ) -> tuple[list[PortalResult], float]:
        """One portal batch: its answers and the modeled seconds it took
        (collection makespan plus processing).  A lone query is the
        portal's ``execute`` — its batch of one, without the tick's
        accounting — and took its own end-to-end seconds."""
        if len(queries) == 1:
            result = self._portal_call(self.portal.execute, queries[0])
            return [result], result.end_to_end_seconds
        batch = self._portal_call(self.portal.execute_batch, queries)
        return batch.results, batch.stats.collection_seconds + sum(
            r.processing_seconds for r in batch.results
        )

    def _served_directly(
        self, miss: "_Miss", result: PortalResult, waited: float = 0.0
    ) -> FrontDoorResult:
        """A portal answer served as is, and stored as the viewport.
        ``waited``: modeled seconds spent before the execution that
        answered (a fallback's tile fill)."""
        q, raster, _ = miss
        generation = self._cache_generation()
        if generation is not None:
            now = self.portal.clock.now()
            self.cache.put_viewport(q, result, now, generation, raster)
        return FrontDoorResult(
            q, "served", "portal", result, waited + result.end_to_end_seconds
        )
