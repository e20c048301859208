"""The relational COLR-Tree facade and its two access methods.

``RelCOLRTree`` owns a :class:`~repro.relational.Database` holding the
layer / cache / sensor / leaf-cache tables of one tree, with the four
maintenance triggers installed.  All state changes flow through DML —
inserting a probed reading is a DELETE + INSERT on the leaf-cache table
and everything else happens in the trigger cascade, exactly as in the
paper's SQL Server deployment.

Access methods (Section VI-A):

* **cache read** — a per-layer union, top-down: cached aggregates of
  nodes entirely inside the query region with usable slots, skipping
  nodes whose ancestor already contributed (the containment-dedup
  predicate), then fresh leaf readings with an explicit timestamp check.
* **sensor selection** — the join-style descent that partitions the
  sample target over child rows by cache-discounted, overlap-weighted
  shares and returns the sensor ids the front end should probe.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.aggregates import AggregateSketch
from repro.core.build import build_colr_tree
from repro.core.config import DEFAULT_SAMPLE_SIZE, COLRTreeConfig
from repro.core.lookup import QueryAnswer, Region, TerminalRecord, region_bbox
from repro.core.slots import slot_of
from repro.geometry import GeoPoint, Rect
from repro.relational import Database, col
from repro.relcolr.loader import load_tree, tree_depth
from repro.relcolr.schema import SchemaNames
from repro.relcolr.triggers import MaintenanceConfig, install_triggers
from repro.sensors.network import SensorNetwork
from repro.sensors.sensor import Reading, Sensor
from repro.transport.config import TransportConfig
from repro.transport.dispatcher import ProbeDispatcher


class RelCOLRTree:
    """COLR-Tree implemented as relations + triggers."""

    def __init__(
        self,
        sensors: Sequence[Sensor],
        config: COLRTreeConfig | None = None,
        network: SensorNetwork | None = None,
        names: SchemaNames | None = None,
        build_method: str = "str",
        availability_model=None,
        transport: TransportConfig | None = None,
    ) -> None:
        self.config = config if config is not None else COLRTreeConfig()
        self.network = network
        self.availability_model = availability_model
        # Probe collection goes through the transport dispatcher (dedup /
        # retry / overlap per ``transport``; ``None`` is the parity
        # config); ingestion stays pure DML, so the trigger cascade is
        # untouched.  Only a structure-only tree (no network) has none.
        if transport is not None and network is None:
            raise ValueError("transport requires a sensor network")
        self.dispatcher: ProbeDispatcher | None = None
        if network is not None:
            self.dispatcher = ProbeDispatcher(
                network, transport if transport is not None else TransportConfig.parity()
            )
        self.names = names if names is not None else SchemaNames()
        # ``wal_sink``, when set by the owning portal, journals each
        # acknowledged cache batch exactly like ``COLRTree.wal_sink`` —
        # callable(readings, fetched_at).
        self.wal_sink = None
        self.db = Database()
        root = build_colr_tree(
            sensors,
            fanout=self.config.fanout,
            leaf_capacity=self.config.leaf_capacity,
            seed=self.config.seed,
            method=build_method,
        )
        self.root_id = root.node_id
        self.n_levels = tree_depth(root)
        load_tree(self.db, root, self.names)
        self.maintenance = install_triggers(
            self.db,
            self.names,
            MaintenanceConfig(
                slot_seconds=self.config.slot_seconds,
                n_slots=self.config.n_slots,
                cache_capacity=self.config.cache_capacity,
            ),
            self.n_levels,
        )
        self.rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    # Reading maintenance (pure DML; triggers do the bookkeeping)
    # ------------------------------------------------------------------
    def insert_reading(self, reading: Reading, fetched_at: float) -> None:
        """Cache one probed reading.

        A sensor keeps only its newest reading, so an existing row is
        deleted first (firing the slot-delete decrement), then the new
        row is inserted (firing roll + slot-insert).
        """
        leaf_cache = self.names.leaf_cache
        sensor_row = self.db.table(self.names.sensors).get((reading.sensor_id,))
        if sensor_row is None:
            raise KeyError(f"sensor {reading.sensor_id} is not indexed")
        if self.db.table(leaf_cache).contains_key((reading.sensor_id,)):
            self.db.delete(leaf_cache, col("sensor_id") == reading.sensor_id)
        self.db.insert(
            leaf_cache,
            [
                {
                    "sensor_id": reading.sensor_id,
                    "leaf_id": int(sensor_row["leaf_id"]),
                    "slot_id": slot_of(reading.expires_at, self.config.slot_seconds),
                    "value": reading.value,
                    "timestamp": reading.timestamp,
                    "expires_at": reading.expires_at,
                    "fetched_at": fetched_at,
                }
            ],
        )
        if self.wal_sink is not None:
            self.wal_sink([reading], fetched_at)

    def insert_readings_batch(self, readings: Sequence[Reading], fetched_at: float) -> None:
        """Cache a batch of probed readings as two statements.

        The statement-trigger analogue of
        ``COLRTree.insert_readings_batch``: one DELETE expunges every
        displaced row (firing the grouped slot-delete decrement — one
        merged statement per (ancestor, slot)), then one multi-row
        INSERT adds the batch (firing roll + grouped slot-insert).  A
        sensor appearing more than once keeps its last reading, matching
        the sequential loop's final state.
        """
        batch: dict[int, tuple[Reading, int]] = {}
        sensors_table = self.db.table(self.names.sensors)
        for reading in readings:
            sensor_row = sensors_table.get((reading.sensor_id,))
            if sensor_row is None:
                raise KeyError(f"sensor {reading.sensor_id} is not indexed")
            batch[reading.sensor_id] = (reading, int(sensor_row["leaf_id"]))
        if not batch:
            return
        leaf_cache = self.names.leaf_cache
        leaf_table = self.db.table(leaf_cache)
        displaced = [sid for sid in batch if leaf_table.contains_key((sid,))]
        if displaced:
            self.db.delete(leaf_cache, col("sensor_id").in_(displaced))
        self.db.insert(
            leaf_cache,
            [
                {
                    "sensor_id": sid,
                    "leaf_id": leaf_id,
                    "slot_id": slot_of(reading.expires_at, self.config.slot_seconds),
                    "value": reading.value,
                    "timestamp": reading.timestamp,
                    "expires_at": reading.expires_at,
                    "fetched_at": fetched_at,
                }
                for sid, (reading, leaf_id) in batch.items()
            ],
        )
        if self.wal_sink is not None:
            self.wal_sink(list(readings), fetched_at)

    def expire(self, now: float) -> int:
        """Expunge slots entirely behind ``now`` (explicit roll; the
        insert-driven roll trigger handles the steady state)."""
        boundary = slot_of(now, self.config.slot_seconds)
        return self.db.delete(self.names.leaf_cache, col("slot_id") < boundary)

    # ------------------------------------------------------------------
    # Cache read access method
    # ------------------------------------------------------------------
    def cache_read(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        stats=None,
    ) -> tuple[list[AggregateSketch], list[Reading]]:
        """Usable cached aggregates and readings for a query, deduped by
        containment (an aggregated subtree suppresses its descendants).

        ``stats`` (a :class:`~repro.core.stats.QueryStats`) is metered
        with the cache consultations and row scans when provided."""
        boundary = slot_of(now, self.config.slot_seconds)
        freshness_floor = now - max_staleness
        covered: set[int] = set()
        sketches: list[AggregateSketch] = []
        meta_table = self.db.table(self.names.node_meta)
        for level in range(self.n_levels - 1):
            cache_table = self.db.table(self.names.cache(level))
            node_rows = meta_table.scan(col("level") == level)
            for meta in node_rows:
                node_id = int(meta["node_id"])
                if meta["is_leaf"] or node_id in covered or (
                    meta["parent_id"] is not None and int(meta["parent_id"]) in covered
                ):
                    if meta["parent_id"] is not None and int(meta["parent_id"]) in covered:
                        covered.add(node_id)
                    continue
                bbox = Rect(
                    float(meta["min_x"]),
                    float(meta["min_y"]),
                    float(meta["max_x"]),
                    float(meta["max_y"]),
                )
                if not region.contains_rect(bbox):
                    continue
                rows = cache_table.scan(
                    (col("node_id") == node_id)
                    & (col("slot_id") > boundary)
                    & (col("oldest_ts") >= freshness_floor)
                )
                if stats is not None:
                    stats.cached_nodes_accessed += 1
                    stats.slots_combined += len(rows)
                usable = sum(int(r["value_count"]) for r in rows)
                if usable >= int(meta["weight"]):
                    for r in rows:
                        sketches.append(_sketch_of_row(r))
                    covered.add(node_id)
        # Transitive closure over the remaining levels (in particular the
        # deepest leaf level, which the aggregate loop never visits), so
        # leaf readings under a covered aggregate are not double counted.
        for meta in sorted(meta_table.scan(), key=lambda m: int(m["level"])):
            parent_id = meta["parent_id"]
            if parent_id is not None and int(parent_id) in covered:
                covered.add(int(meta["node_id"]))
        readings = self._fresh_leaf_readings(region, now, max_staleness, covered)
        return sketches, readings

    def _fresh_leaf_readings(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        covered: set[int],
    ) -> list[Reading]:
        """Leaf-layer cache read: explicit timestamp + expiry predicates
        (Section VI-A's extra leaf-level comparison)."""
        boundary = slot_of(now, self.config.slot_seconds)
        rows = self.db.table(self.names.leaf_cache).scan(
            (col("slot_id") >= boundary)
            & (col("expires_at") > now)
            & (col("timestamp") >= now - max_staleness)
        )
        out = []
        for row in rows:
            if int(row["leaf_id"]) in covered:
                continue
            sensor_row = self.db.table(self.names.sensors).get((int(row["sensor_id"]),))
            assert sensor_row is not None
            loc = GeoPoint(float(sensor_row["x"]), float(sensor_row["y"]))
            if not region.contains_point(loc):
                continue
            out.append(
                Reading(
                    sensor_id=int(row["sensor_id"]),
                    value=float(row["value"]),
                    timestamp=float(row["timestamp"]),
                    expires_at=float(row["expires_at"]),
                )
            )
        return out

    # ------------------------------------------------------------------
    # Sensor selection access method
    # ------------------------------------------------------------------
    def sensor_selection(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        target_size: float,
        stats=None,
    ) -> list[int]:
        """Sensor ids the front end should probe for this query.

        A frontier descent over the layer tables mirroring Algorithm 1:
        each node's target is split over child rows by weight x overlap
        and discounted by the child's usable cached weight; leaf picks
        are oversampled by historical availability when an
        ``availability_model`` is attached; shortfalls (cache-covered
        or non-overlapping children, exhausted leaves) are
        redistributed over the remaining frontier (Algorithm 2).
        """
        if target_size <= 0:
            return []
        query_bbox = region_bbox(region)
        boundary = slot_of(now, self.config.slot_seconds)
        freshness_floor = now - max_staleness
        picks: list[int] = []
        # Frontier entries are mutable so redistribution can boost them.
        frontier: list[list] = [[self.root_id, 0, float(target_size)]]
        meta_table = self.db.table(self.names.node_meta)

        def redistribute(shortfall: float) -> None:
            live = [e for e in frontier if e[2] > 0]
            total = sum(e[2] for e in live)
            if shortfall <= 0 or total <= 0:
                return
            for entry in live:
                entry[2] += shortfall * entry[2] / total

        while frontier:
            node_id, level, r = frontier.pop()
            if r <= 0:
                continue
            if stats is not None:
                stats.nodes_traversed += 1
            meta = meta_table.get((node_id,))
            assert meta is not None
            if meta["is_leaf"]:
                leaf_target = r
                if self.availability_model is not None and self.config.oversampling_enabled:
                    ids = [
                        int(row["sensor_id"])
                        for row in self.db.table(self.names.sensors).scan(
                            col("leaf_id") == node_id
                        )
                    ]
                    leaf_target = r / self.availability_model.mean_estimate(ids)
                chosen = self._pick_leaf_sensors(
                    node_id, region, now, max_staleness, leaf_target
                )
                picks.extend(chosen)
                if self.config.redistribution_enabled and len(chosen) < r:
                    redistribute(r - len(chosen))
                continue
            edges = self.db.table(self.names.layer(level)).scan(col("node_id") == node_id)
            weighted: list[tuple[dict, float]] = []
            total = 0.0
            for edge in edges:
                child_bbox = Rect(
                    float(edge["child_min_x"]),
                    float(edge["child_min_y"]),
                    float(edge["child_max_x"]),
                    float(edge["child_max_y"]),
                )
                overlap = child_bbox.overlap_fraction(query_bbox)
                if overlap <= 0.0 and not region.intersects_rect(child_bbox):
                    continue
                w = int(edge["child_weight"]) * max(overlap, 1e-12)
                weighted.append((edge, w))
                total += w
            if total <= 0:
                if self.config.redistribution_enabled:
                    redistribute(r)
                continue
            assigned = 0.0
            for edge, w in weighted:
                child_id = int(edge["child_id"])
                share = r * w / total
                child_meta = meta_table.get((child_id,))
                assert child_meta is not None
                # Discount the child's usable cached weight (the
                # cache-sufficiency check of the access method).
                cached = self._usable_cached_weight(
                    child_id, child_meta, boundary, freshness_floor
                )
                need = share - cached
                assigned += min(share, float(cached))
                if need <= 0:
                    continue
                assigned += need
                frontier.append([child_id, int(child_meta["level"]), need])
            if self.config.redistribution_enabled and assigned < r:
                redistribute(r - assigned)
        return picks

    def _usable_cached_weight(
        self, node_id: int, meta: dict, boundary: int, freshness_floor: float
    ) -> int:
        if meta["is_leaf"]:
            rows = self.db.table(self.names.leaf_cache).scan(
                (col("leaf_id") == node_id)
                & (col("slot_id") > boundary)
                & (col("timestamp") >= freshness_floor)
            )
            return len(rows)
        # "aggregating cache value weights across slots" (Section VI-A):
        # one GROUP BY over the node's usable slots.
        groups = self.db.group_aggregate(
            self.names.cache(int(meta["level"])),
            ["node_id"],
            "value_count",
            (col("node_id") == node_id)
            & (col("slot_id") > boundary)
            & (col("oldest_ts") >= freshness_floor),
        )
        return int(groups[0]["sum"]) if groups else 0

    def _pick_leaf_sensors(
        self,
        leaf_id: int,
        region: Region,
        now: float,
        max_staleness: float,
        target: float,
    ) -> list[int]:
        boundary = slot_of(now, self.config.slot_seconds)
        cached_ids = {
            int(r["sensor_id"])
            for r in self.db.table(self.names.leaf_cache).scan(
                (col("leaf_id") == leaf_id)
                & (col("slot_id") >= boundary)
                & (col("timestamp") >= now - max_staleness)
            )
        }
        pool = []
        for row in self.db.table(self.names.sensors).scan(col("leaf_id") == leaf_id):
            if int(row["sensor_id"]) in cached_ids:
                continue
            if region.contains_point(GeoPoint(float(row["x"]), float(row["y"]))):
                pool.append(int(row["sensor_id"]))
        k = int(math.floor(target))
        if target - k > 0 and self.rng.random() < (target - k):
            k += 1
        if k >= len(pool):
            return pool
        if k <= 0:
            return []
        chosen = self.rng.choice(len(pool), size=k, replace=False)
        return [pool[i] for i in chosen]

    # ------------------------------------------------------------------
    # End-to-end query
    # ------------------------------------------------------------------
    def query(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        sample_size: int | None = None,
    ) -> QueryAnswer:
        """Sensor selection → probe → DML maintenance → cache read."""
        if sample_size is None:
            sample_size = DEFAULT_SAMPLE_SIZE
        self.expire(now)
        answer = QueryAnswer()
        target = sample_size if self.config.sampling_enabled else 10**9
        to_probe = self.sensor_selection(
            region, now, max_staleness, target, stats=answer.stats
        )
        if to_probe:
            if self.dispatcher is None:
                raise RuntimeError("this tree has no sensor network attached")
            # The dispatcher's dedup/cooldown/retry tables apply;
            # ``tree=None`` keeps ingestion out of the dispatcher so it
            # stays relational DML below.
            rnd = self.dispatcher.collect(
                to_probe, now, tree=None, max_staleness=max_staleness
            )
            readings = rnd.readings
            answer.stats.sensors_probed += len(to_probe)
            answer.stats.probe_successes += len(readings)
            answer.stats.probe_batches += 1
            answer.stats.collection_latency_seconds += rnd.latency_seconds
            # Batched ingestion: the probe round enters the cache as one
            # DELETE + one multi-row INSERT, so the grouped triggers
            # issue one statement per (ancestor, slot) for the round.
            self.insert_readings_batch(list(readings.values()), fetched_at=now)
            answer.probed_readings.extend(readings.values())
        sketches, cached = self.cache_read(
            region, now, max_staleness, stats=answer.stats
        )
        probed_ids = {r.sensor_id for r in answer.probed_readings}
        answer.cached_readings.extend(
            r for r in cached if r.sensor_id not in probed_ids
        )
        answer.cached_sketches.extend(sketches)
        answer.terminals.append(
            TerminalRecord(
                node_id=self.root_id,
                level=0,
                target=float(sample_size),
                results=answer.result_weight,
                used_cache=bool(sketches or cached),
            )
        )
        return answer


def _sketch_of_row(row: dict) -> AggregateSketch:
    return AggregateSketch(
        count=int(row["value_count"]),
        total=float(row["value_sum"]),
        minimum=float(row["value_min"]),
        maximum=float(row["value_max"]),
        oldest_timestamp=float(row["oldest_ts"]),
    )
