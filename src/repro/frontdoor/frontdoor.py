"""The portal front door: cache-first serving above any portal.

``FrontDoor`` wraps a :class:`~repro.portal.portal.SensorMapPortal` or a
:class:`~repro.federation.federated.FederatedPortal` (either backend)
and serves viewport queries cache-first:

1. eligible rectangular viewports are **quantized** to their covering
   tile union (the map-UI contract: the client renders tiles and
   crops), so jittered viewports of one hotspot share entries;
2. the **L1** exact-viewport LRU is probed, then the **L2** tile
   cache composed; a hit costs microseconds of modeled time instead of
   a portal execution;
3. a miss runs the portal — tile-composable queries fill exactly their
   missing tiles through ``execute_batch`` (shared traversals), every
   other query runs directly — and the full answers (never partial
   ones) are stored for the next viewer.

Invalidation is wired, not polled: the front door registers ingest
listeners on every in-process tree so ``insert_readings_batch`` deltas
drop exactly the overlapping entries, and keys every entry on the
portal's ``index_generation`` so a rebuild strands the lot.  On the
process-backend federation the trees — and their writes: each worker
owns its shard and its WAL — live in the workers, where the front door
cannot listen, and replies do not carry write deltas yet; its caches
are invalidated by generation and slot advancement, plus
:meth:`FrontDoor.invalidate_region` for out-of-band writes.

Admission control (:class:`~repro.frontdoor.admission.AdmissionController`)
rides along for the open-loop harness; ``execute`` applies it when
given a tenant, ``execute_batch`` leaves arrival-time admission to the
serving loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.frontdoor.admission import AdmissionController
from repro.frontdoor.cache import Raster, TieredResultCache
from repro.frontdoor.config import FrontDoorConfig
from repro.geometry import Polygon, Rect
from repro.geometry.grid import Cell, cell_rect, cells_covering
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery

__all__ = ["FrontDoor", "FrontDoorBatchResult", "FrontDoorResult"]


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
        self.cache = TieredResultCache(self.config, portal.config.slot_seconds)
        self.admission = AdmissionController(self.config.admission)
        self._attached_generation = -1
        # A live rebalance replaces shard trees without bumping the
        # index generation (so the cache survives the membership change
        # wholesale); it notifies us instead, and we invalidate only the
        # moved sensors' cells and re-attach ingest listeners to the
        # staged trees.
        listeners = getattr(portal, "rebalance_listeners", None)
        if listeners is not None:
            listeners.append(self._on_rebalance)

    # ------------------------------------------------------------------
    # Invalidation wiring
    # ------------------------------------------------------------------
    def _on_ingest(self, dirty: Rect, count: int) -> None:
        self.cache.invalidate_region(dirty)

    def _on_rebalance(self, moved) -> None:
        """Cell-precise invalidation for a committed membership change:
        only tiles touching a moved sensor's location drop; everything
        else stays warm (the point of rebalancing over a rebuild)."""
        self._attached_generation = -1  # staged trees need listeners
        for sensor in moved:
            loc = sensor.location
            self.cache.invalidate_region(Rect(loc.x, loc.y, loc.x, loc.y))

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

    def invalidate_region(self, region: Rect) -> int:
        """Out-of-band write invalidation (process backend, external
        ingestion)."""
        return self.cache.invalidate_region(region)

    def _sensor_locator(self):
        """A sensor-id → location resolver over the in-process trees'
        build-time sensor tables (first tree holding the id wins; no
        live tree, no location), or ``None`` on the process backend
        (whose polygon viewports then skip L2 composition and run the
        portal's exact path)."""
        tables = [tree._sensors for tree in self._local_trees()]
        if not tables:
            return None

        def locate(sensor_id: int):
            for table in tables:
                sensor = table.get(sensor_id)
                if sensor is not None:
                    return sensor.location
            return None

        return locate

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

    def quantize(self, query: SensorQuery) -> SensorQuery:
        """Expand an eligible rectangular viewport to its covering tile
        union.  Applied before caching *and* before execution, on the
        cached and uncached configurations alike — quantization is the
        serving contract, not a cache trick, so cache-on/cache-off
        comparisons stay apples-to-apples.
        """
        if not self._tile_serveable(query):
            return query
        if isinstance(query.region, Polygon):
            # Polygon viewports quantize at the L2 layer (their cover is
            # the covered-cell union) but the region itself stays exact:
            # boundary tiles are cropped per sensor at compose time, so
            # there is no coarser region to rewrite the query to.
            return query
        assert isinstance(query.region, Rect)
        tiles = cells_covering(query.region, self.config.tile_extent_degrees)
        if not tiles or len(tiles) > self.config.max_tiles_per_cover:
            return query
        e = self.config.tile_extent_degrees
        xs = [t[0] for t in tiles]
        ys = [t[1] for t in tiles]
        quantized = Rect(
            min(xs) * e, min(ys) * e, (max(xs) + 1) * e, (max(ys) + 1) * e
        )
        return replace(query, region=quantized)

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
        runs first and a shed request never touches cache or portal."""
        now = self.portal.clock.now()
        if tenant is not None:
            verdict = self.admission.offer(tenant, now, queue_depth)
            if verdict != "admit":
                return FrontDoorResult(query, verdict, None, None, 0.0)
        q = self.quantize(query)
        generation = self._cache_generation()
        raster: Raster = []
        if generation is not None:
            hit, raster, missing = self._lookup(q, now, generation)
            if hit is not None:
                return hit
            if missing:
                served = self._fill_tiles(q, raster, missing, now, generation)
                if served is not None:
                    return served
            self.cache.stats.misses += 1
        result = self._run_portal(q)
        self._store_viewport(q, result, raster)
        return FrontDoorResult(
            q, "served", "portal", result, result.end_to_end_seconds
        )

    def _lookup(
        self, q: SensorQuery, now: float, generation: int
    ) -> tuple[FrontDoorResult | None, Raster, list[Cell]]:
        """The cache ladder for one quantized query: the L1 viewport
        entry, then the L2 tile composition (promoted to L1 so the next
        identical viewport hits there).  Returns the served hit, or
        ``None`` plus the request's raster (empty: not tile-composable
        here) and the tiles of it still missing."""
        hit = self.cache.get_viewport(q, now, generation)
        if hit is not None:
            return (
                FrontDoorResult(q, "served", "l1", hit, self.config.l1_hit_seconds),
                [],
                [],
            )
        raster = self.cache.raster(q) if self._tile_serveable(q) else []
        composed, missing = self.cache.get_tiles(
            q, raster, now, generation, locate=self._sensor_locator()
        )
        if composed is None:
            return None, raster, missing
        self.cache.put_viewport(q, composed.result, now, generation, raster)
        served = FrontDoorResult(
            q,
            "served",
            "l2",
            composed.result,
            self.config.l1_hit_seconds
            + composed.tiles * self.config.l2_tile_compose_seconds,
            tiles_composed=composed.tiles,
        )
        return served, raster, []

    def _run_portal(self, q: SensorQuery) -> PortalResult:
        """Direct (uncached) execution: polygon viewports take the
        portal's geoblock path, everything else the plain one."""
        if isinstance(q.region, Polygon):
            return self.portal.execute_polygon(q)
        return self.portal.execute(q)

    def _fill_tiles(
        self,
        q: SensorQuery,
        raster: Raster,
        missing: list[Cell],
        now: float,
        generation: int,
    ) -> FrontDoorResult | None:
        """Miss path for a tile-composable query: fill exactly the
        missing tiles in one shared portal batch, then compose the full
        cover.  Returns ``None`` (fall back to direct execution) if any
        fill came back partial — gaps are never cached or composed."""
        e = self.config.tile_extent_degrees
        fills = [replace(q, region=cell_rect(t, e)) for t in missing]
        batch = self.portal.execute_batch(fills)
        if any(getattr(r, "partial", False) for r in batch.results):
            return None
        for tile, result in zip(missing, batch.results):
            self.cache.put_tile(tile, q, result, now, generation)
        composed, _ = self.cache.get_tiles(
            q, raster, now, generation, record=False, locate=self._sensor_locator()
        )
        if composed is None:
            return None
        self.cache.stats.misses += 1
        self.cache.put_viewport(q, composed.result, now, generation, raster)
        service = (
            batch.stats.collection_seconds
            + sum(r.processing_seconds for r in batch.results)
            + composed.tiles * self.config.l2_tile_compose_seconds
        )
        return FrontDoorResult(
            q,
            "served",
            "portal",
            composed.result,
            service,
            tiles_composed=composed.tiles,
        )

    def _store_viewport(
        self, q: SensorQuery, result: PortalResult, raster: Raster
    ) -> None:
        generation = self._cache_generation()
        if generation is not None:
            now = self.portal.clock.now()
            self.cache.put_viewport(q, result, now, generation, raster)

    # ------------------------------------------------------------------
    # Batch serving
    # ------------------------------------------------------------------
    def execute_batch(self, queries: list[SensorQuery]) -> FrontDoorBatchResult:
        """Serve a batch cache-first with ONE portal batch for every
        miss: direct misses and all distinct missing tiles share the
        portal's batched traversals.  Admission is the serving loop's
        job (arrival time, live queue depth), not this method's."""
        now = self.portal.clock.now()
        generation = self._cache_generation()
        results: list[FrontDoorResult | None] = [None] * len(queries)
        plans: list[tuple[str, SensorQuery, Raster]] = []
        needed: dict = {}  # tile cache key -> (tile, exemplar query)
        for i, query in enumerate(queries):
            q = self.quantize(query)
            raster: Raster = []
            if generation is not None:
                results[i], raster, missing = self._lookup(q, now, generation)
                if results[i] is not None:
                    plans.append(("hit", q, raster))
                    continue
                if missing:
                    for tile in missing:
                        needed.setdefault(self.cache.tile_key(tile, q), (tile, q))
                    self.cache.stats.misses += 1
                    plans.append(("tiles", q, raster))
                    continue
                self.cache.stats.misses += 1
            plans.append(("direct", q, raster))
        direct_indices = [i for i, p in enumerate(plans) if p[0] == "direct"]
        fill_items = list(needed.values())
        e = self.config.tile_extent_degrees
        portal_queries = [plans[i][1] for i in direct_indices] + [
            replace(q, region=cell_rect(tile, e)) for tile, q in fill_items
        ]
        batch_service = 0.0
        if portal_queries:
            batch = self.portal.execute_batch(portal_queries)
            batch_service = batch.stats.collection_seconds + sum(
                r.processing_seconds for r in batch.results
            )
            for slot, i in enumerate(direct_indices):
                result = batch.results[slot]
                _, q, raster = plans[i]
                self._store_viewport(q, result, raster)
                results[i] = FrontDoorResult(
                    q, "served", "portal", result, result.end_to_end_seconds
                )
            offset = len(direct_indices)
            for slot, (tile, q) in enumerate(fill_items):
                result = batch.results[offset + slot]
                if generation is not None and not getattr(result, "partial", False):
                    self.cache.put_tile(tile, q, result, now, generation)
        # Compose the tile-planned queries from the now-filled cache.
        portal_service = batch_service
        for i, (kind, q, raster) in enumerate(plans):
            if kind != "tiles":
                continue
            composed = None
            if generation is not None:
                composed, _ = self.cache.get_tiles(
                    q, raster, now, generation, record=False,
                    locate=self._sensor_locator(),
                )
            if composed is not None:
                self.cache.put_viewport(q, composed.result, now, generation, raster)
                compose_cost = composed.tiles * self.config.l2_tile_compose_seconds
                batch_service += compose_cost
                results[i] = FrontDoorResult(
                    q,
                    "served",
                    "portal",
                    composed.result,
                    portal_service + compose_cost,
                    tiles_composed=composed.tiles,
                )
            else:
                # A fill came back partial (degraded shard), or a
                # polygon compose could not crop a boundary tile: serve
                # this query directly, uncached.
                result = self._run_portal(q)
                batch_service += result.end_to_end_seconds
                results[i] = FrontDoorResult(
                    q, "served", "portal", result, result.end_to_end_seconds
                )
        hit_cost = sum(
            r.service_seconds for r in results if r is not None and r.cache_hit
        )
        final = [r for r in results if r is not None]
        assert len(final) == len(queries)
        return FrontDoorBatchResult(final, batch_service + hit_cost)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats_summary(self) -> dict[str, object]:
        return {
            "cache": self.cache.stats.as_dict(),
            "admission": self.admission.stats.as_dict(),
        }
