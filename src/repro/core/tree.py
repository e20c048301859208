"""The COLR-Tree facade.

``COLRTree`` ties everything together: the k-means-built hierarchy, the
per-node slot caches, on-demand probing through a
:class:`~repro.sensors.network.SensorNetwork`, bottom-up aggregate
maintenance (the in-memory analogue of Section VI-B's four triggers),
the global cache-size constraint with least-recently-fetched eviction,
and the two query paths (exact range lookup / layered sampling).

Cache maintenance invariants
----------------------------
* Every reading cached at a leaf is folded into the same-numbered slot
  of *every* ancestor's aggregate cache (globally aligned slotting).
* Replacing a sensor's reading decrements the displaced value out of
  each ancestor slot; if that dirties a min/max, the slot is recomputed
  from the children (bottom-up order makes this sound).
* Expiry needs no propagation: a slot id expires everywhere at once, so
  each cache prunes its own stale slot ids lazily.
* Capacity eviction removes the least recently *fetched* readings lying
  in the oldest occupied slot (the paper's replacement policy), with
  decrement propagation since the evicted readings are still valid.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro.core.aggregates import AggregateSketch
from repro.core.build import build_colr_tree
from repro.core.config import DEFAULT_SAMPLE_SIZE, COLRTreeConfig
from repro.core.flat import FlatKernel
from repro.core.lookup import QueryAnswer, Region, range_lookup
from repro.core.node import COLRNode
from repro.core.plancache import SpatialPlan, SpatialPlanCache, region_fingerprint
from repro.core.sampling import layered_sample
from repro.core.slots import slot_of
from repro.core.stats import ProcessingCostModel, QueryStats
from repro.sensors.availability import AvailabilityModel
from repro.sensors.network import SensorNetwork
from repro.sensors.sensor import Reading, Sensor
from repro.transport.config import TransportConfig
from repro.transport.dispatcher import ProbeDispatcher, ProbeRound

# How often (simulated seconds) a node's mean availability estimate is
# recomputed from the historical model.
AVAILABILITY_REFRESH_SECONDS = 600.0


def _check_query(max_staleness: float, terminal_level: int | None) -> None:
    """The argument checks :meth:`COLRTree.query` and
    :meth:`COLRTree.explain` share.  Negated comparisons, so NaN fails
    them and infinity passes."""
    if not max_staleness >= 0:
        raise ValueError("max_staleness must be non-negative")
    if terminal_level is not None and not terminal_level >= 0:
        raise ValueError("terminal_level must be non-negative")


class COLRTree:
    """A built COLR-Tree over a sensor population.

    Parameters
    ----------
    sensors:
        The registered sensor population (static metadata).
    config:
        Index tunables; see :class:`COLRTreeConfig`.
    network:
        The probe endpoint.  May be ``None`` for structure-only tests,
        in which case querying raises on the first probe attempt.
    availability_model:
        Source of historical availability estimates for oversampling.
        Defaults to an empty model (prior estimate 0.5 per sensor).
    cost_model:
        Deterministic processing-latency model for the benchmarks.
    transport:
        The probe dispatcher every probe goes through.  A portal passes
        the one it shares across its per-type trees; when omitted the
        tree builds its own over ``network`` from
        ``TransportConfig.parity()`` — one ``complete_batch`` per round,
        no retries, no tables.
    """

    def __init__(
        self,
        sensors: Sequence[Sensor],
        config: COLRTreeConfig | None = None,
        network: SensorNetwork | None = None,
        availability_model: AvailabilityModel | None = None,
        cost_model: ProcessingCostModel | None = None,
        build_method: str = "kmeans",
        transport: ProbeDispatcher | None = None,
    ) -> None:
        self.config = config if config is not None else COLRTreeConfig()
        self.network = network
        if transport is None and network is not None:
            transport = ProbeDispatcher(network, TransportConfig.parity())
        self.transport = transport
        self.availability_model = (
            availability_model
            if availability_model is not None
            else AvailabilityModel()
        )
        self.cost_model = cost_model if cost_model is not None else ProcessingCostModel()
        self.rng = np.random.default_rng(self.config.seed)
        self.root = build_colr_tree(
            sensors,
            fanout=self.config.fanout,
            leaf_capacity=self.config.leaf_capacity,
            seed=self.config.seed,
            method=build_method,
        )
        self._sensors: dict[int, Sensor] = {s.sensor_id: s for s in sensors}
        self._nodes: dict[int, COLRNode] = {}
        self._leaf_of: dict[int, COLRNode] = {}
        for node in self.root.iter_subtree():
            self._nodes[node.node_id] = node
            if self.config.caching_enabled:
                node.attach_caches(self.config.slot_seconds)
            if node.is_leaf:
                for sensor in node.sensors:
                    self._leaf_of[sensor.sensor_id] = node
        # Global cache accounting: slot id -> sensor id -> fetched_at.
        self._cache_registry: dict[int, dict[int, float]] = {}
        # Min-heap over occupied slot ids (lazy deletion: entries whose
        # slot has vanished from the registry are skipped on pop), so
        # capacity eviction finds the oldest slot in O(log slots)
        # instead of rescanning the registry every iteration.
        self._slot_heap: list[int] = []
        self._cached_count = 0
        # Write-delta listeners: ``fn(sensors)`` fires after every
        # cache ingestion (probe fill, streamed transport ingestion,
        # a batch insert) with the sensors written, one per reading.  The
        # front-door result cache subscribes here so viewport answers
        # holding a written sensor drop out — cached results see exactly
        # the deltas the slot caches see.
        self.ingest_listeners: list = []
        # Durable-storage hook (``None`` on an in-memory tree), called
        # as ``fn(readings, fetched_at)`` after a batch is fully applied
        # to the caches — the portal points it at the storage engine's
        # WAL so every acknowledged ingestion is journaled (recovery
        # priming runs with the sink detached, so replay is never
        # re-journaled).
        self.wal_sink = None
        # The flattened traversal kernel + spatial plan cache.
        self.kernel = FlatKernel(self.root)
        self.plan_cache = SpatialPlanCache(self.config.plan_cache_size)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sensors)

    def sensor(self, sensor_id: int) -> Sensor:
        return self._sensors[sensor_id]

    def node(self, node_id: int) -> COLRNode:
        return self._nodes[node_id]

    def nodes(self) -> list[COLRNode]:
        """All nodes, root first by id order of creation."""
        return [self._nodes[nid] for nid in sorted(self._nodes)]

    def leaf_for(self, sensor_id: int) -> COLRNode:
        return self._leaf_of[sensor_id]

    def height(self) -> int:
        return self.root.height()

    @property
    def cached_reading_count(self) -> int:
        """Raw readings currently cached across all leaves."""
        return self._cached_count

    def unlink(self) -> None:
        """Clear every node's ``parent`` link — the structure's only
        back-references — so dropping the last reference to a replaced
        tree frees its nodes and slot caches by reference counting
        instead of waiting for a cycle collection.  The tree must not be
        queried or ingested into afterwards."""
        for node in self._nodes.values():
            node.parent = None

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        sample_size: int | None = None,
        terminal_level: int | None = None,
        aggregate_termination: bool = True,
    ) -> QueryAnswer:
        """Answer a spatio-temporal query.

        With ``sampling_enabled`` (and a positive target) this runs
        layered sampling; otherwise the exact cache-aware range lookup.
        ``sample_size=None`` uses the config default; pass ``0`` to
        force an exact lookup on a sampling-enabled tree.
        ``terminal_level`` adjusts the sampling threshold ``T`` per
        query (the map-zoom knob).

        ``aggregate_termination=False`` disables sketch
        early-termination on the exact path, so the answer carries only
        per-sensor readings (probed or cache-served) and never an
        anonymous node-level aggregate — the answer a geoblock-planned
        polygon gets (the batch executor's ``ScanRequest`` carries the
        same flag).  The default keeps every existing path bit-identical.
        """
        _check_query(max_staleness, terminal_level)
        self._prune_expired(now)
        if sample_size is None:
            sample_size = DEFAULT_SAMPLE_SIZE
        if self.config.sampling_enabled and sample_size > 0:
            answer = layered_sample(
                self, region, now, max_staleness, sample_size,
                terminal_level=terminal_level,
            )
        else:
            answer = range_lookup(
                self, region, now, max_staleness,
                aggregate_termination=aggregate_termination,
            )
        return answer

    def processing_seconds(self, stats: QueryStats) -> float:
        """Simulated processing latency of one query's stats."""
        return self.cost_model.processing_seconds(stats)

    def explain(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        sample_size: int | None = None,
        terminal_level: int | None = None,
    ):
        """EXPLAIN: the plan a query would execute, without probing.

        Returns a :class:`repro.core.explain.QueryPlan` with the access
        path, cache coverage, expected probe count and per-terminal
        allocation.  Read-only and deterministic; the arguments are
        checked as :meth:`query` checks them.
        """
        from repro.core.explain import explain_query

        return explain_query(
            self, region, now, max_staleness, sample_size, terminal_level
        )

    def spatial_plan(
        self, region: Region, stats: QueryStats | None = None
    ) -> SpatialPlan:
        """The memoized spatial half of a query plan.

        The classification (and everything derived from it) depends
        only on the region and the frozen tree structure, so a cached
        plan is valid indefinitely and every query over the region —
        exact, sampled at any terminal level, or explained — shares it;
        ``stats`` receives the hit/miss meters when provided.  A region
        without a fingerprint is classified afresh each time.
        """
        key = region_fingerprint(region)
        if key is not None:
            plan = self.plan_cache.get(key)
            if plan is not None:
                if stats is not None:
                    stats.plan_cache_hits += 1
                return plan
        plan = SpatialPlan.of(self.kernel.classify(region))
        if key is not None:
            self.plan_cache.put(key, plan)
            if stats is not None:
                stats.plan_cache_misses += 1
        return plan

    def node_availability(self, node: COLRNode, now: float) -> float:
        """Mean historical availability of the node's descendants
        (``a_i``), refreshed at most every
        :data:`AVAILABILITY_REFRESH_SECONDS`."""
        if now - node.availability_refreshed_at >= AVAILABILITY_REFRESH_SECONDS:
            ids = node.descendant_ids
            if ids.size > 256:
                # Even subsample: the estimate is a mean, and terminal
                # nodes are small; this keeps refreshes O(1)-ish.
                step = ids.size // 256
                ids = ids[::step]
            node.availability = self.availability_model.mean_estimate(ids.tolist())
            node.availability_refreshed_at = now
        return max(1e-3, node.availability)

    # ------------------------------------------------------------------
    # Probing + cache population
    # ------------------------------------------------------------------
    def probe_and_cache(
        self,
        sensor_ids: Iterable[int],
        now: float,
        stats: QueryStats,
        max_staleness: float | None = None,
    ) -> list[Reading]:
        """Probe live sensors, record work, and cache the successes.

        The round goes through the tree's dispatcher: its
        dedup/cooldown/retry tables apply, and in the event-queue modes
        it streams the readings into the cache itself.  The optional
        ``max_staleness`` bounds how old a dedup-served reading may be.
        """
        ids = list(sensor_ids)
        if not ids:
            return []
        if self.transport is None:
            raise RuntimeError("this tree has no sensor network attached")
        rnd = self.transport.collect(
            ids,
            now,
            tree=self,
            max_staleness=math.inf if max_staleness is None else max_staleness,
        )
        return self._book_round(rnd, len(ids), now, stats)

    def _book_round(
        self, rnd: ProbeRound, requested: int, now: float, stats: QueryStats
    ) -> list[Reading]:
        """Charge a resolved probe round of ``requested`` sensors to the
        one query that issued it: its probe and transport counters and
        the ingestion of its fresh readings (the dispatcher's own, when
        it streams them).  Returns the round's readings in arrival
        order."""
        stats.sensors_probed += requested
        stats.probe_successes += len(rnd.readings)
        stats.probe_batches += 1
        stats.collection_latency_seconds += rnd.latency_seconds
        stats.probes_retried += rnd.retries
        stats.probes_timed_out += len(rnd.timed_out)
        stats.probes_deduped += len(rnd.deduped)
        stats.probes_cooldown_skipped += len(rnd.cooldown_skipped)
        if self.config.caching_enabled:
            if self.transport.streams_ingestion:
                stats.maintenance_ops += rnd.maintenance_ops
            else:
                served = rnd.deduped_set
                fresh = [r for sid, r in rnd.readings.items() if sid not in served]
                stats.maintenance_ops += self.insert_readings_batch(
                    fresh, fetched_at=now
                )
        return list(rnd.readings.values())

    def insert_reading(self, reading: Reading, fetched_at: float) -> int:
        """Cache one reading and propagate aggregates to the root.

        Returns the number of cache-maintenance operations performed
        (the trigger-work analogue used by the latency model).
        """
        if not self.config.caching_enabled:
            return 0
        leaf = self._leaf_of.get(reading.sensor_id)
        if leaf is None:
            raise KeyError(f"sensor {reading.sensor_id} is not indexed by this tree")
        assert leaf.leaf_cache is not None
        ops = 1
        # Remove-then-decrement *before* inserting the new reading:
        # a min/max recomputation triggered by the decrement reads the
        # leaf's current contents, which must not yet include the new
        # value (it is added to every ancestor afterwards).
        displaced = leaf.leaf_cache.remove(reading.sensor_id)
        if displaced is not None:
            ops += self._decrement_path(leaf, displaced.slot, displaced.reading.value)
            self._registry_remove(displaced.slot, reading.sensor_id)
        new_slot = slot_of(reading.expires_at, self.config.slot_seconds)
        leaf.leaf_cache.put(reading, fetched_at, new_slot)
        if new_slot not in self._cache_registry:
            heapq.heappush(self._slot_heap, new_slot)
        self._cache_registry.setdefault(new_slot, {})[reading.sensor_id] = fetched_at
        self._cached_count += 1
        # Roll-forward + per-slot increment up the tree (the slot-insert
        # and slot-update triggers of Section VI-B).
        if not self.config.aggregate_caching_enabled:
            if self.wal_sink is not None:
                self.wal_sink([reading], fetched_at)
            self._notify_ingest([reading])
            return ops
        node = leaf.parent
        while node is not None:
            assert node.agg_cache is not None
            node.agg_cache.add(new_slot, reading.value, reading.timestamp)
            ops += 1
            node = node.parent
        if self.wal_sink is not None:
            self.wal_sink([reading], fetched_at)
        self._notify_ingest([reading])
        return ops

    def insert_readings_batch(self, readings: Iterable[Reading], fetched_at: float) -> int:
        """Cache many readings with grouped delta propagation.

        The batch analogue of :meth:`insert_reading` (Section VI-B's
        triggers, amortized): one pass applies every reading to its
        leaf, collecting per-(leaf, slot) add deltas and displaced
        values; then each distinct ancestor receives a *single merged*
        :class:`AggregateSketch` delta per touched slot instead of one
        walk per reading.  Ancestors are applied deepest-first so a slot
        whose min/max goes dirty is recomputed (at most once) from
        already-corrected children.

        Equivalence with the one-by-one loop: leaf contents, registry
        accounting and per-slot count/min/max come out identical;
        ``total`` agrees up to float summation order (the grouped delta
        sums the same values in a different association); and
        ``oldest_timestamp`` is equal or *conservatively older* — a
        grouped removal recomputes a slot when any of its values was
        extremal, which can refresh a stale timestamp the interleaved
        loop (or vice versa) would have kept as a valid older bound.
        The trigger-work count — the returned maintenance op count —
        is smaller, which is exactly the processing saving batched
        ingestion exists to provide.  Capacity is enforced once at the
        end, like the per-probe-batch pass.
        """
        if not self.config.caching_enabled:
            return 0
        batch = list(readings)
        if not batch:
            return 0
        slot_seconds = self.config.slot_seconds
        ops = 0
        # Phase 1: leaf-level application, grouped by leaf.  Each
        # reading is touched once: one leaf lookup, one slot
        # computation, one displacement (the displaced entry remembers
        # the slot it was filed under).
        touched_leaves: dict[int, COLRNode] = {}
        leaf_adds: dict[int, dict[int, AggregateSketch]] = defaultdict(
            lambda: defaultdict(AggregateSketch)
        )
        leaf_removes: dict[int, dict[int, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        aggregating = self.config.aggregate_caching_enabled
        leaf_of = self._leaf_of
        registry = self._cache_registry
        for reading in batch:
            sensor_id = reading.sensor_id
            leaf = leaf_of.get(sensor_id)
            if leaf is None:
                raise KeyError(f"sensor {sensor_id} is not indexed by this tree")
            assert leaf.leaf_cache is not None
            ops += 1
            leaf_id = leaf.node_id
            new_slot = slot_of(reading.expires_at, slot_seconds)
            displaced = leaf.leaf_cache.put(reading, fetched_at, new_slot)
            if displaced is not None:
                if aggregating:
                    leaf_removes[leaf_id][displaced.slot].append(
                        displaced.reading.value
                    )
                self._registry_remove(displaced.slot, sensor_id)
            members = registry.get(new_slot)
            if members is None:
                heapq.heappush(self._slot_heap, new_slot)
                members = registry[new_slot] = {}
            members[sensor_id] = fetched_at
            self._cached_count += 1
            touched_leaves[leaf_id] = leaf
            if aggregating:
                leaf_adds[leaf_id][new_slot].add(reading.value, reading.timestamp)
        if not aggregating:
            ops += self._enforce_capacity()
            if self.wal_sink is not None:
                self.wal_sink(batch, fetched_at)
            self._notify_ingest(batch)
            return ops
        # Phase 2: merge each touched leaf's deltas into its ancestor
        # chain, so every ancestor sees one delta per slot regardless of
        # how many readings (or leaves) contributed.
        anc_adds: dict[int, dict[int, AggregateSketch]] = {}
        anc_removes: dict[int, dict[int, list[float]]] = {}
        ancestors: dict[int, COLRNode] = {}
        for leaf_id, leaf in touched_leaves.items():
            adds = leaf_adds.get(leaf_id, {})
            removes = leaf_removes.get(leaf_id, {})
            # Removals propagate the whole chain: a reading present in a
            # leaf has its value folded into *every* ancestor's slot
            # (inserts add it everywhere; displacement and eviction
            # decrement everywhere), and a displaced reading inserted
            # earlier in this same batch has its slot created by the add
            # deltas, which phase 3 applies first.
            node = leaf.parent
            while node is not None:
                assert node.agg_cache is not None
                ancestors[node.node_id] = node
                n_adds = anc_adds.setdefault(node.node_id, {})
                for slot, delta in adds.items():
                    got = n_adds.get(slot)
                    if got is None:
                        n_adds[slot] = delta.copy()
                    else:
                        got.merge(delta)
                if removes:
                    n_removes = anc_removes.setdefault(node.node_id, {})
                    for slot, values in removes.items():
                        n_removes.setdefault(slot, []).extend(values)
                node = node.parent
        # Phase 3: apply deepest-first (adds before removes per node) so
        # a dirty min/max recomputation always reads fully corrected
        # children and runs at most once per (ancestor, slot).
        for node in sorted(ancestors.values(), key=lambda n: n.level, reverse=True):
            cache = node.agg_cache
            assert cache is not None
            for slot, delta in sorted(anc_adds.get(node.node_id, {}).items()):
                cache.add_sketch(slot, delta)
                ops += 1
            for slot, values in sorted(anc_removes.get(node.node_id, {}).items()):
                if cache.sketch(slot) is None:
                    continue
                ops += 1
                if cache.remove_bulk(slot, values):
                    cache.replace(slot, self._recompute_slot(node, slot))
                    ops += len(node.children)
        ops += self._enforce_capacity()
        if self.wal_sink is not None:
            self.wal_sink(batch, fetched_at)
        self._notify_ingest(batch)
        return ops

    def _notify_ingest(self, readings: Sequence[Reading]) -> None:
        """Fire the write-delta listeners with the sensors a write
        touched, one per reading.  A cached answer depends on exactly
        the readings of the sensors in its region, so those sensors are
        the whole delta; and a sensor id names the same sensor to
        anyone holding a sensor table, a process-backend coordinator
        included."""
        if not self.ingest_listeners or not readings:
            return
        sensors = self._sensors
        written = [sensors[reading.sensor_id] for reading in readings]
        for listener in list(self.ingest_listeners):
            listener(written)

    def clear_caches(self) -> None:
        """Drop every cached reading and aggregate (leaf and internal),
        resetting the tree to its cold post-build state.  Spatial plans
        stay valid (they depend only on the frozen structure); only the
        temporal state is cleared.  Used by benchmarks to re-run a
        workload from cold without paying a rebuild."""
        if self.config.caching_enabled:
            for node in self._nodes.values():
                node.attach_caches(self.config.slot_seconds)
        self._cache_registry.clear()
        self._slot_heap.clear()
        self._cached_count = 0

    # ------------------------------------------------------------------
    # Maintenance internals
    # ------------------------------------------------------------------
    def _decrement_path(self, leaf: COLRNode, slot: int, value: float) -> int:
        """Subtract a removed reading's value from every ancestor's slot
        aggregate, recomputing slots whose min/max went dirty.  Works
        bottom-up so recomputation always sees corrected children."""
        ops = 0
        node = leaf.parent
        while node is not None:
            assert node.agg_cache is not None
            if node.agg_cache.sketch(slot) is None:
                # The ancestor pruned this slot already (it expired from
                # its perspective); nothing to decrement above either.
                break
            dirty = node.agg_cache.remove(slot, value)
            ops += 1
            if dirty:
                node.agg_cache.replace(slot, self._recompute_slot(node, slot))
                ops += len(node.children)
            node = node.parent
        return ops

    def _recompute_slot(self, node: COLRNode, slot: int) -> AggregateSketch:
        """Rebuild an internal node's slot sketch from its children's
        same-numbered slots (the non-decrementable-aggregate path)."""
        sketch = AggregateSketch()
        for child in node.children:
            if child.is_leaf:
                assert child.leaf_cache is not None
                for reading in child.leaf_cache.slot_readings(slot):
                    sketch.add(reading.value, reading.timestamp)
            else:
                assert child.agg_cache is not None
                child_sketch = child.agg_cache.sketch(slot)
                if child_sketch is not None:
                    sketch.merge(child_sketch)
        return sketch

    def _registry_remove(self, slot: int, sensor_id: int) -> None:
        members = self._cache_registry.get(slot)
        if members is not None and sensor_id in members:
            del members[sensor_id]
            self._cached_count -= 1
            if not members:
                del self._cache_registry[slot]

    def _prune_expired(self, now: float) -> None:
        """Drop globally expired slots (the roll trigger).

        Thanks to globally aligned slot ids an expired slot vanishes
        from every cache without any decrement propagation: the leaf
        readings and every ancestor aggregate for that slot expire
        together.
        """
        if not self.config.caching_enabled:
            return
        boundary = slot_of(now, self.config.slot_seconds)
        stale_slots = [s for s in self._cache_registry if s < boundary]
        if not stale_slots:
            return
        touched_leaves: set[int] = set()
        for slot in stale_slots:
            for sensor_id in list(self._cache_registry[slot]):
                leaf = self._leaf_of[sensor_id]
                assert leaf.leaf_cache is not None
                if leaf.leaf_cache.remove(sensor_id) is not None:
                    self._cached_count -= 1
                touched_leaves.add(leaf.node_id)
            del self._cache_registry[slot]
        # Ancestor aggregate caches prune the same slot ids wholesale.
        pruned_nodes: set[int] = set()
        for leaf_id in touched_leaves:
            node = self._nodes[leaf_id].parent
            while node is not None and node.node_id not in pruned_nodes:
                assert node.agg_cache is not None
                node.agg_cache.prune_expired(now)
                pruned_nodes.add(node.node_id)
                node = node.parent

    def _oldest_slot(self) -> int | None:
        """Smallest occupied slot id, via the lazy-deletion heap.

        Slots leave the registry through expiry, displacement and
        eviction without touching the heap; stale heap entries are
        simply skipped here, keeping each eviction pass O(log slots)
        instead of the former O(slots) registry rescan."""
        while self._slot_heap:
            slot = self._slot_heap[0]
            if slot in self._cache_registry:
                return slot
            heapq.heappop(self._slot_heap)
        return None

    def _enforce_capacity(self) -> int:
        """Evict least-recently-fetched readings from the oldest slot
        until the global cache constraint holds (Section IV-A's policy).
        Returns maintenance op count."""
        capacity = self.config.cache_capacity
        if capacity is None:
            return 0
        ops = 0
        while self._cached_count > capacity and self._cache_registry:
            oldest = self._oldest_slot()
            assert oldest is not None  # registry non-empty => heap has it
            members = self._cache_registry[oldest]
            overflow = self._cached_count - capacity
            victims = sorted(members.items(), key=lambda kv: kv[1])[:overflow]
            for sensor_id, _ in victims:
                leaf = self._leaf_of[sensor_id]
                assert leaf.leaf_cache is not None
                removed = leaf.leaf_cache.remove(sensor_id)
                if removed is not None:
                    ops += 1 + self._decrement_path(
                        leaf, oldest, removed.reading.value
                    )
                del members[sensor_id]
                self._cached_count -= 1
            if not members:
                del self._cache_registry[oldest]
        return ops
