"""The SensorMap portal facade.

``SensorMapPortal`` wires the whole reproduction together the way the
deployed portal wires SQL Server, the data collector and the web front
end: publishers register sensors, the portal (re)builds one COLR-Tree
per sensor type (the paper rebuilds periodically to absorb location
changes; we rebuild lazily when the population changed), and user
queries — SQL text or :class:`SensorQuery` objects — are executed
against the index with probe-budget sampling, viewport grouping and
latency accounting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.config import COLRTreeConfig
from repro.core.lookup import QueryAnswer
from repro.core.stats import ProcessingCostModel
from repro.core.tree import COLRTree
from repro.geometry import GeoPoint
from repro.portal.grouping import DisplayGroup
# Imported by name for the e2e tracer's table of trace points, which
# still lists it here (ROADMAP item 6(e) retires that table).
from repro.portal.grouping import group_answer  # noqa: F401
from repro.portal.parser import parse_query
from repro.portal.query import SensorQuery
from repro.sensors.availability import AvailabilityModel
from repro.sensors.clock import SimClock
from repro.sensors.network import SensorNetwork
from repro.sensors.registry import SensorRegistry
from repro.sensors.sensor import Sensor
from repro.transport.config import TransportConfig
from repro.transport.dispatcher import ProbeDispatcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.geoblocks.config import GeoBlockConfig
    from repro.geoblocks.grid import GeoBlockGrid
    from repro.portal.batch import BatchResult
    from repro.sensors.sensor import Reading
    from repro.storage.config import StorageConfig
    from repro.storage.engine import RecoveredState, StorageEngine


@dataclass
class PortalResult:
    """What a portal query returns to the front end.

    ``sample_requested`` is the portal's *effective* sample target for
    the query (cap semantics applied, summed across the per-type trees
    it fanned out to), or ``None`` for an exact lookup.  Together with
    :attr:`result_weight` / :attr:`pool_exhausted` it surfaces the
    achieved-vs-requested story the layered sampler used to keep to
    itself.

    ``groups`` is read-only.  For a query with neither ``CLUSTER`` nor a
    zoom level it is a view over ``answers`` that builds each group when
    read (:class:`~repro.portal.grouping.GroupView`); it compares equal
    to the list of the same groups.
    """

    query: SensorQuery
    groups: Sequence[DisplayGroup]
    answers: list[QueryAnswer]
    processing_seconds: float
    collection_seconds: float
    sample_requested: int | None = None

    @property
    def end_to_end_seconds(self) -> float:
        return self.processing_seconds + self.collection_seconds

    @property
    def result_weight(self) -> int:
        return sum(a.result_weight for a in self.answers)

    @property
    def pool_exhausted(self) -> bool:
        """True when any terminal genuinely ran out of in-region
        sensors (as opposed to rounding noise or probe failures)."""
        return any(a.stats.pool_exhausted_terminals > 0 for a in self.answers)

    def aggregate(self) -> float:
        """The requested aggregate over the whole answer."""
        from repro.core.aggregates import combine

        total = combine(a.combined_sketch() for a in self.answers)
        return total.result(self.query.aggregate)


class SensorMapPortal:
    """The rendezvous point of publishers and map users."""

    def __init__(
        self,
        config: COLRTreeConfig | None = None,
        cost_model: ProcessingCostModel | None = None,
        value_fn=None,
        network_seed: int = 0,
        clock: SimClock | None = None,
        max_sensors_per_query: int | None = 1000,
        transport: TransportConfig | None = None,
        network_options: dict[str, object] | None = None,
        storage: "StorageConfig | None" = None,
        geoblocks: "GeoBlockConfig | None" = None,
    ) -> None:
        """``max_sensors_per_query`` is the portal-wide collection cap of
        Section III-B: a whole-world query is answered from at most this
        many sensors, roughly uniformly distributed, instead of trying
        to contact everything.  ``None`` disables the cap.

        ``transport`` configures the one ``ProbeDispatcher``
        (``repro.transport``) all of the portal's probing goes through:
        in-flight dedup, retry/backoff/cooldown and overlapping rounds.
        ``None`` means ``TransportConfig.parity()`` — one synchronous
        collection round per tree, no retries, no tables.
        ``network_options`` forwards extra
        keyword arguments (``rtt_seconds``, ``parallelism``,
        ``latency_jitter``, ``timeout_seconds``) to the
        ``SensorNetwork`` built on each index rebuild.

        ``storage`` opts the portal into the durable storage engine
        (``repro.storage``): registrations and acknowledged slot-cache
        ingestions are write-ahead logged, ``checkpoint()`` compacts
        the log into an immutable page file, and opening a portal on an
        existing data directory *recovers* — the registry reloads from
        disk, the deterministic tree rebuilds, and the recovered cache
        batches re-install so the first tick after restart is
        probe-free for fresh slots.  ``None`` (the default) keeps the
        historical in-memory behavior bit-identical.

        ``geoblocks`` configures the geoblock grid the executor plans
        exact polygon queries on (``repro.geoblocks``); ``None`` uses the
        default grid config.  The grid itself is built lazily on the
        first polygon query that needs it."""
        if max_sensors_per_query is not None and max_sensors_per_query < 1:
            raise ValueError("max_sensors_per_query must be positive or None")
        self.config = config if config is not None else COLRTreeConfig()
        self.max_sensors_per_query = max_sensors_per_query
        self.cost_model = cost_model if cost_model is not None else ProcessingCostModel()
        self.registry = SensorRegistry()
        self.availability = AvailabilityModel()
        self.clock = clock if clock is not None else SimClock()
        self._value_fn = value_fn
        self._network_seed = network_seed
        self._network_options = dict(network_options) if network_options else {}
        self.transport_config = (
            transport if transport is not None else TransportConfig.parity()
        )
        self._dispatcher: ProbeDispatcher | None = None
        self._network: SensorNetwork | None = None
        self._trees: dict[str, COLRTree] = {}
        self._index_dirty = True
        # Monotone build counter: bumped by every rebuild_index() so
        # layers above the portal (the front-door result cache) can
        # detect that cached answers predate the current index.
        self.index_generation = 0
        # Durable storage (optional).  Opening the engine performs
        # recovery: the durable registry reloads immediately, the
        # recovered cache batches wait in ``_recovered_pending`` until
        # the first ``rebuild_index()`` re-installs them (priming runs
        # with the WAL sink detached, so replay is never re-journaled).
        # Geoblock grid (lazy; see geoblocks()).
        self.geoblocks_config = geoblocks
        self._geoblocks: "GeoBlockGrid | None" = None
        self.storage_config = storage
        self.storage: "StorageEngine | None" = None
        self.last_recovery: "RecoveredState | None" = None
        self._recovered_pending: list[tuple[float, list["Reading"]]] = []
        self._recovery_maintenance_ops = 0
        if storage is not None:
            from repro.storage.engine import StorageEngine

            self.storage = StorageEngine(storage)
            recovered = self.storage.recovered
            self.last_recovery = recovered
            if recovered.sensors:
                self.registry.register_all(recovered.sensors)
                self._recovered_pending = list(recovered.batches)
            self.clock.advance_to(recovered.clock_now)

    @property
    def dispatcher(self) -> ProbeDispatcher | None:
        """The portal-wide probe dispatcher (None until the index is
        built)."""
        return self._dispatcher

    # ------------------------------------------------------------------
    # Publisher side
    # ------------------------------------------------------------------
    def register_sensor(
        self,
        location: GeoPoint,
        expiry_seconds: float,
        sensor_type: str = "generic",
        availability: float = 1.0,
        metadata: dict[str, str] | None = None,
    ) -> Sensor:
        """Register one sensor; the index rebuilds before the next query."""
        sensor = self.registry.register(
            location,
            expiry_seconds,
            sensor_type=sensor_type,
            availability=availability,
            metadata=metadata,
        )
        if self.storage is not None:
            self.storage.journal_register(sensor)
        self._index_dirty = True
        return sensor

    def register_all(self, sensors: list[Sensor]) -> None:
        if self.storage is not None:
            # A durable portal may already hold (some of) these sensors
            # from recovery: re-registering the identical sensor is a
            # no-op, a conflicting definition under a recovered id is an
            # error, and only genuinely fresh sensors are journaled.
            existing = {s.sensor_id: s for s in self.registry}
            fresh: list[Sensor] = []
            for sensor in sensors:
                prior = existing.get(sensor.sensor_id)
                if prior is not None:
                    if prior != sensor:
                        raise ValueError(
                            f"sensor {sensor.sensor_id} conflicts with the "
                            "recovered definition in the data directory"
                        )
                    continue
                fresh.append(sensor)
            self.registry.register_all(fresh)
            self.storage.journal_register_all(fresh)
        else:
            self.registry.register_all(sensors)
        self._index_dirty = True

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    def rebuild_index(self) -> None:
        """(Re)build one COLR-Tree per registered sensor type — the
        paper's periodic batch reconstruction."""
        if len(self.registry) == 0:
            raise ValueError("no sensors registered")
        self._network = SensorNetwork(
            self.registry.all(),
            value_fn=self._value_fn,
            availability_model=self.availability,
            seed=self._network_seed,
            **self._network_options,
        )
        self._dispatcher = ProbeDispatcher(self._network, self.transport_config)
        self._trees = {}
        by_type: dict[str, list[Sensor]] = {}
        for sensor in self.registry:
            by_type.setdefault(sensor.sensor_type, []).append(sensor)
        for sensor_type, sensors in by_type.items():
            self._trees[sensor_type] = COLRTree(
                sensors,
                self.config,
                network=self._network,
                availability_model=self.availability,
                cost_model=self.cost_model,
                transport=self._dispatcher,
            )
        if self.storage is not None:
            # Prime the recovered cache batches BEFORE attaching the WAL
            # sink, so replay is never re-journaled.
            self._prime_recovered()
            self._attach_wal_sink()
        self._index_dirty = False
        self.index_generation += 1

    # ------------------------------------------------------------------
    # Durable storage
    # ------------------------------------------------------------------
    def open_storage(self, storage: "StorageConfig") -> None:
        """Make this in-memory portal durable in a directory that holds
        no state.  The engine opens straight at the portal's image
        (:meth:`StorageEngine.create`: its sensors, cached readings and
        clock as ``checkpoint-1``, an empty WAL), so nothing is written
        twice; from then on the portal journals and recovers exactly
        like one constructed with ``storage``."""
        from repro.storage.engine import StorageEngine

        if self.storage is not None:
            raise RuntimeError("portal already has storage attached")
        self._ensure_index()
        self.storage = StorageEngine.create(
            storage,
            sensors=self.registry.all(),
            cached=self._cached_entries(),
            clock_now=self.clock.now(),
        )
        self.storage_config = storage
        self.last_recovery = self.storage.recovered
        self._attach_wal_sink()

    def _attach_wal_sink(self) -> None:
        """From here every acknowledged ingestion flows into the log and
        every query meters the disk I/O it caused."""
        for tree in self._trees.values():
            tree.wal_sink = self._journal_ingest
            tree.storage_meter = self.storage.stats

    def _prime_recovered(self) -> None:
        """Re-install recovered cache batches into freshly built trees.

        Replay preserves the original batch boundaries, so grouped-delta
        ingestion reproduces counts/extremes/weights bit-exactly (sums
        agree up to summation order once a checkpoint has compacted
        batches; see the batch-equivalence note in ``COLRTree``).
        Expired readings are *not* filtered here — query-time staleness
        pruning then behaves exactly as it would have pre-crash."""
        if not self._recovered_pending:
            return
        type_of = {s.sensor_id: s.sensor_type for s in self.registry}
        ops = 0
        for fetched_at, readings in self._recovered_pending:
            split: dict[str, list["Reading"]] = {}
            for reading in readings:
                sensor_type = type_of.get(reading.sensor_id)
                if sensor_type is None or sensor_type not in self._trees:
                    continue
                split.setdefault(sensor_type, []).append(reading)
            for sensor_type, batch in split.items():
                ops += self._trees[sensor_type].insert_readings_batch(
                    batch, fetched_at=fetched_at
                )
        self._recovery_maintenance_ops += ops
        self._recovered_pending = []

    def _journal_ingest(self, readings, fetched_at: float) -> None:
        """WAL sink for the trees: journal one acknowledged slot-cache
        batch."""
        engine = self.storage
        assert engine is not None
        engine.journal_batch(list(readings), fetched_at)

    def _cached_entries(self) -> list[tuple["Reading", float]]:
        """Every cached leaf reading with its fetch stamp, across all
        per-type trees (the checkpoint's cache image)."""
        entries: list[tuple["Reading", float]] = []
        for tree in self._trees.values():
            for node in tree.nodes():
                if node.leaf_cache is None:
                    continue
                for cached in node.leaf_cache.entries():
                    entries.append((cached.reading, cached.fetched_at))
        return entries

    def export_cache(
        self, sensor_ids: "Sequence[int] | None" = None
    ) -> list[tuple["Reading", float]]:
        """Cached readings (with fetch stamps) for migration shipping.

        ``sensor_ids`` filters to the sensors leaving this shard; the
        default exports everything (a full warm image, as a checkpoint
        would see it).  Read-only: no probes, no cache mutation."""
        self._ensure_index()
        entries = self._cached_entries()
        if sensor_ids is None:
            return entries
        wanted = set(sensor_ids)
        return [e for e in entries if e[0].sensor_id in wanted]

    def install_cache_entries(
        self, entries: "Sequence[tuple[Reading, float]]"
    ) -> int:
        """Prime migrated slot-cache entries into this portal's trees.

        The inverse of :meth:`export_cache` on the receiving shard:
        readings are grouped by their *original* fetch stamp (batch
        boundaries preserved, first-seen order — the same discipline as
        ``_prime_recovered``) and inserted as maintenance batches, never
        probes.  The WAL sink is detached while priming — durability for
        migrated state comes from the checkpoint the restaged shard is
        written as (:meth:`open_storage`), not from re-journaling
        readings another shard already acknowledged.  Returns readings
        installed (readings for unknown sensors/types are skipped)."""
        self._ensure_index()
        type_of = {s.sensor_id: s.sensor_type for s in self.registry}
        batches: dict[float, dict[str, list["Reading"]]] = {}
        order: list[float] = []
        for reading, fetched_at in entries:
            sensor_type = type_of.get(reading.sensor_id)
            if sensor_type is None or sensor_type not in self._trees:
                continue
            if fetched_at not in batches:
                batches[fetched_at] = {}
                order.append(fetched_at)
            batches[fetched_at].setdefault(sensor_type, []).append(reading)
        installed = 0
        saved_sinks = {name: tree.wal_sink for name, tree in self._trees.items()}
        try:
            for tree in self._trees.values():
                tree.wal_sink = None
            for fetched_at in order:
                for sensor_type, batch in batches[fetched_at].items():
                    self._trees[sensor_type].insert_readings_batch(
                        batch, fetched_at=fetched_at
                    )
                    installed += len(batch)
        finally:
            for name, tree in self._trees.items():
                tree.wal_sink = saved_sinks[name]
        return installed

    def checkpoint(self) -> None:
        """Compact the WAL into a fresh checkpoint page file.

        After a checkpoint the WAL is empty, so the next open replays
        only the page file plus whatever lands in the log afterwards."""
        if self.storage is None:
            raise RuntimeError("portal has no storage attached")
        self._ensure_index()
        self.storage.checkpoint(
            sensors=self.registry.all(),
            cached=self._cached_entries(),
            clock_now=self.clock.now(),
        )

    @property
    def recovery_seconds(self) -> float:
        """Modeled cost of the open-time recovery this portal performed:
        disk replay (engine cost model) plus the cache-maintenance work
        of re-installing the recovered batches (portal cost model)."""
        if self.storage is None:
            return 0.0
        return (
            self.storage.recovery_cost_seconds
            + self._recovery_maintenance_ops * self.cost_model.per_maintenance_op
        )

    def close(self) -> None:
        """Flush and close the storage engine (no-op without storage)."""
        if self.storage is not None and not self.storage.closed:
            self.storage.close()

    def discard(self) -> None:
        """Close a portal that has been replaced, and drop its index so
        reference counting frees it at once.  The trees' node ``parent``
        links, their WAL sink (a bound method of this portal) and the
        geoblock grid's back-reference are cycles that would otherwise
        keep every node and slot cache alive until a generation-2
        collection.  :meth:`close` alone leaves an in-memory portal
        queryable; a discarded one has no index any more."""
        self.close()
        for tree in self._trees.values():
            tree.wal_sink = None
            tree.unlink()
        self._trees = {}
        self._geoblocks = None

    def crash(self) -> None:
        """Simulate abrupt process death: abandon the WAL mid-flight
        (no final fsync, no checkpoint).  Reopening the same data
        directory then exercises real recovery."""
        if self.storage is not None and not self.storage.closed:
            self.storage.crash()

    def __enter__(self) -> "SensorMapPortal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def network(self) -> SensorNetwork:
        if self._network is None:
            raise RuntimeError("index not built yet; call rebuild_index()")
        return self._network

    def tree(self, sensor_type: str) -> COLRTree:
        """The index of one sensor type (for inspection/tests)."""
        self._ensure_index()
        return self._trees[sensor_type]

    def sensor_types(self) -> list[str]:
        self._ensure_index()
        return sorted(self._trees)

    def _ensure_index(self) -> None:
        if self._index_dirty or not self._trees:
            self.rebuild_index()

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    def execute_sql(self, sql: str) -> PortalResult:
        """Parse and execute one query in the SQL-ish dialect."""
        return self.execute(parse_query(sql))

    def execute(self, query: SensorQuery) -> PortalResult:
        """Execute one portal query at the current simulated time: a
        batch of one."""
        return self.execute_batch((query,)).results[0]

    def execute_batch(self, queries: "Sequence[SensorQuery]") -> "BatchResult":
        """Execute a set of in-flight queries as one batch tick.

        Distinct regions classify once per batch, each live sensor is
        probed at most once (readings fan out to every requesting
        query), and probed readings enter the caches as grouped deltas.
        See :mod:`repro.portal.batch`.
        """
        return _execute_batch(self, queries)

    def _resolve(self, query: SensorQuery) -> tuple[dict[str, COLRTree], int | None]:
        """The type trees a query fans out to (by type, in index order;
        the mapping may be the portal's own — do not mutate it) and its
        effective sample size.  Raises ``KeyError`` for a type with no
        sensors.  Call with the index built."""
        if query.sensor_type is None:
            trees = self._trees
        elif query.sensor_type in self._trees:
            trees = {query.sensor_type: self._trees[query.sensor_type]}
        else:
            raise KeyError(f"no sensors of type {query.sensor_type!r} registered")
        return trees, self._effective_sample_size(query.sample_size, len(trees))

    def geoblocks(self) -> "GeoBlockGrid":
        """The portal's (lazily built) geoblock grid, synced to the
        current index generation; see :mod:`repro.geoblocks.grid`."""
        if self._geoblocks is None:
            from repro.geoblocks.grid import GeoBlockGrid

            self._geoblocks = GeoBlockGrid(self, self.geoblocks_config)
        self._geoblocks.sync()
        return self._geoblocks

    # Only because the e2e tracer's TRACE_POINTS names it (ROADMAP item 6(e)).
    execute_polygon = execute

    def stats(self) -> dict[str, object]:
        """Operational summary: per-type index shape, cache occupancy,
        cumulative query/probe totals, and each layer's counters as its
        owner keeps them (``NetworkStats``, ``TransportStats``,
        ``StorageStats``)."""
        self._ensure_index()
        per_type = {}
        for name, tree in self._trees.items():
            per_type[name] = {
                "sensors": len(tree),
                "height": tree.height(),
                "cached_readings": tree.cached_reading_count,
                "queries": tree.stats.queries,
                "sensors_probed": tree.stats.totals.sensors_probed,
                "cached_nodes_accessed": tree.stats.totals.cached_nodes_accessed,
            }
        transport = self._dispatcher.stats
        summary: dict[str, object] = {
            "types": per_type,
            "total_sensors": len(self.registry),
            "network": asdict(self.network.stats),
            "transport": asdict(transport) | {"dedup_hits": transport.dedup_hits},
        }
        if self.storage is not None:
            summary["storage"] = asdict(self.storage.stats)
        return summary

    def explain(self, query: SensorQuery) -> dict[str, object]:
        """EXPLAIN for a portal query: per-type plans plus totals,
        without probing anything.

        Returns ``{"plans": {type: QueryPlan}, "expected_probes": float,
        "cache_coverage": float}``.
        """
        self._ensure_index()
        trees, sample_size = self._resolve(query)
        plans = {
            name: tree.explain(
                query.region,
                now=self.clock.now(),
                max_staleness=query.staleness_seconds,
                sample_size=sample_size,
                terminal_level=query.zoom_level,
            )
            for name, tree in trees.items()
        }
        expected = sum(p.expected_probes for p in plans.values())
        coverages = [p.cache_coverage for p in plans.values()]
        return {
            "plans": plans,
            "expected_probes": expected,
            "cache_coverage": sum(coverages) / len(coverages) if coverages else 1.0,
        }

    def _effective_sample_size(
        self, requested: int | None, n_trees: int
    ) -> int | None:
        """Apply the portal-wide collection cap (Section III-B).

        A missing SAMPLESIZE on an uncapped portal stays exact; with a
        cap, exact queries are demoted to sampling at the cap, and
        explicit sample sizes are clamped to it.  The cap is split
        across the per-type trees a type-less query fans out to.
        """
        if self.max_sensors_per_query is None:
            # No cap: a query without SAMPLESIZE is exact (0 disables
            # sampling at the tree level).
            return 0 if requested is None else requested
        per_tree_cap = max(1, self.max_sensors_per_query // max(1, n_trees))
        if requested is None or requested == 0:
            return per_tree_cap
        return min(requested, per_tree_cap)


# Last, because the executor imports ``PortalResult`` from this module.
from repro.portal.batch import execute_batch as _execute_batch  # noqa: E402
