"""The scatter-gather coordinator over partitioned portal shards.

``FederatedPortal`` mirrors the ``SensorMapPortal`` surface (register /
rebuild / execute / execute_batch / explain / stats) but
owns N shards, each a full portal — its own COLR-Trees, its own
``SensorNetwork``, its own ``ProbeDispatcher`` pool when transport is
enabled.  One simulated clock is shared so freshness bounds mean the
same thing everywhere.

Query flow — plan, scatter, top-up plans, gather:

1. **Plan** — :meth:`FederatedPortal._plan` writes the query down as
   one :class:`Plan`: its routes (the shards whose MBR the region
   meets and, for typed queries, that host the type), the per-shard
   sub-queries, the federated target and the top-up rounds it may run.
   An exact query goes to every routed shard, a genuine polygon clipped
   to each shard's MBR; a sampled target is split by overlap-weighted
   shard weights (Algorithm 1's share rule one level above the trees),
   zero shares skipped.  ``explain`` returns this plan.
2. **Scatter** — each shard receives all the sub-queries planned for it
   as one ``execute_batch`` call (a lone query is a batch of one).
3. **Top up** — a sampled plan that came up short yields a top-up plan
   (Algorithm 2 one level up), scattered the same way.
4. **Gather** — per-shard answers merge in shard-id order: readings and
   sketches concatenate (each shard already enforced the freshness
   bound), processing sums, collection is the *makespan* across shards
   (they collect concurrently).  A plan with a deadline streams.
5. **Degrade** — a shard that raises :class:`ShardDownError` is retried
   up to ``FederationConfig.shard_retry_budget`` times with
   transport-style exponential backoff (:data:`RETRY_BACKOFF_BASE`,
   :data:`RETRY_BACKOFF_MULTIPLIER`) charged to its gather slot.  A
   shard still silent after its budget is failed: the merged answer
   carries its id in ``failed_shards`` and a ``partial`` flag instead
   of an exception.  Every shard that answers is merged, however slow.

With one shard every query path is a bit-identical pass-through around
the wrapped ``SensorMapPortal`` (same network RNG stream, same plan
cache, same stats) — pinned by ``tests/federation/test_parity.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.aggregates import AggregateSketch
from repro.core.config import COLRTreeConfig
from repro.core.explain import cache_coverage
from repro.core.stats import ProcessingCostModel
from repro.federation.backend import InProcessBackend, ShardDownError, ShardSpec
from repro.federation.config import FederationConfig
from repro.federation.directory import ShardDirectory, ShardRoute
from repro.federation.partitioner import GridPartitioner, Partitioner
from repro.federation.streaming import ShardArrival, StreamingGather
from repro.geometry import GeoPoint, Polygon
from repro.geometry.grid import Cell
from repro.portal.batch import BatchStats
from repro.portal.grouping import GroupView, concat_groups
from repro.portal.portal import PortalResult, SensorMapPortal
from repro.portal.query import SensorQuery, normalize_region
from repro.sensors.clock import SimClock
from repro.sensors.registry import SensorRegistry
from repro.sensors.sensor import Sensor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.portal.batch import BatchResult
    from repro.storage.config import StorageConfig
    from repro.transport.config import TransportConfig

__all__ = [
    "FederatedBatchResult",
    "FederatedPortal",
    "FederatedResult",
    "FederationStats",
    "Plan",
    "ShardArrival",
    "ShardDownError",
    "StreamingGather",
]

# Simulated seconds charged to a failed shard's gather slot before its
# retry ``k`` (counting from 0): ``RETRY_BACKOFF_BASE *
# RETRY_BACKOFF_MULTIPLIER**k``.
RETRY_BACKOFF_BASE = 0.5
RETRY_BACKOFF_MULTIPLIER = 2.0


def _capped_new_ids(result: PortalResult, seen: set[int], cap: int) -> set[int]:
    """Distinct unseen sensor ids in a top-up answer, in answer order,
    truncated so their readings do not exceed ``cap``.

    The cap is what keeps a top-up round *bounded*: a shard whose slot
    caches are cold (caching disabled, or evicted between rounds)
    answers the incremental request with a fresh independent sample, so
    the raw unseen portion can dwarf the share the coordinator actually
    asked it to contribute.  Only the first ``cap`` readings' worth of
    new sensors count; the rest are stripped with the repeats."""
    kept: set[int] = set()
    readings = 0
    for answer in result.answers:
        for reading in list(answer.probed_readings) + list(answer.cached_readings):
            sensor_id = reading.sensor_id
            if sensor_id in seen or sensor_id in kept:
                continue
            if readings >= cap:
                return kept
            kept.add(sensor_id)
            readings += 1
    return kept


def _dedup_topup_result(result: PortalResult, new_ids: set[int]) -> None:
    """Strip a top-up answer down to the sensors the federation had not
    delivered yet.

    A top-up sub-query re-targets a shard whose slot caches the first
    round just warmed, so much of its answer is a cache-served repeat of
    round 1 (that is the communication-efficient part: the repeat costs
    no probes).  The merged federated answer must not report a sensor
    twice, so the repeat portion is dropped here — readings filtered in
    place.  Ungrouped display groups are a view over those lists and
    follow by themselves; ``CLUSTER``/zoom groups are eager lists and
    are cut down to the surviving readings (groups carrying only
    anonymous aggregates are kept as-is)."""
    for answer in result.answers:
        answer.probed_readings = [
            r for r in answer.probed_readings if r.sensor_id in new_ids
        ]
        answer.cached_readings = [
            r for r in answer.cached_readings if r.sensor_id in new_ids
        ]
    if isinstance(result.groups, GroupView):
        return
    groups = []
    for group in result.groups:
        if not group.readings:
            if group.sketch.count:
                groups.append(group)
            continue
        kept = [r for r in group.readings if r.sensor_id in new_ids]
        if not kept:
            continue
        sketch = AggregateSketch()
        for r in kept:
            sketch.add(r.value, r.timestamp)
        group.readings = kept
        group.sketch = sketch
        groups.append(group)
    result.groups = groups


@dataclass
class FederationStats:
    """Cumulative coordinator accounting (shard-local work is metered by
    each shard's own portal/network/transport stats)."""

    queries: int = 0
    batch_ticks: int = 0
    subqueries_scattered: int = 0
    exact_broadcasts: int = 0
    sampled_splits: int = 0
    zero_share_skips: int = 0
    shard_attempts: int = 0
    shard_retries: int = 0
    shard_failures: int = 0
    partial_answers: int = 0
    # Cross-shard REDISTRIBUTE accounting: queries whose first gather
    # came up short and triggered a top-up scatter, the rounds actually
    # run, the top-up sub-queries issued, the sensors the rounds
    # recovered, and the shortfall still standing after the final round
    # (> 0 only on provable pool exhaustion or failed top-ups).
    redistributions: int = 0
    redistribution_rounds_run: int = 0
    topup_subqueries: int = 0
    topup_sensors_gained: int = 0
    sampled_shortfall: int = 0
    # Streaming-gather accounting: queries answered through the
    # incremental path, and shard answers that missed a publish
    # deadline (they still reach the final merge — late, not lost).
    streaming_queries: int = 0
    deferred_shard_answers: int = 0
    # Durable-storage accounting: shards rebuilt from their data
    # directories (revive after a kill, or a rebuild over a warm
    # directory) and the total modeled replay seconds those recoveries
    # cost.  Each recovery's seconds are also charged to the revived
    # shard's next gather via ``_ShardState.pending_recovery_seconds``.
    shard_recoveries: int = 0
    recovery_seconds_total: float = 0.0


@dataclass
class FederatedResult(PortalResult):
    """A gathered answer: the ``PortalResult`` surface (so grouping,
    aggregation and the continuous-query manager work unchanged) plus
    the federation's provenance and degradation record."""

    shard_results: dict[int, PortalResult] = field(default_factory=dict)
    failed_shards: tuple[int, ...] = ()
    # Healthy shards whose answers had not landed when this result was
    # published (streaming gathers only; the synchronous path never
    # defers).  A deferred shard's answer arrives in the *final* merge
    # of the same ``StreamingGather`` — it is late, not lost.
    deferred_shards: tuple[int, ...] = ()
    shard_retries: int = 0
    # Cross-shard REDISTRIBUTE provenance.  ``topup_results`` lists the
    # round-2+ per-shard answers in collection order (a shard can appear
    # both here and in ``shard_results`` — its first-round answer and
    # its top-up are distinct collections); a shard in ``failed_shards``
    # that *also* has a ``shard_results`` entry failed during a top-up
    # round, keeping its first-round readings.
    topup_results: tuple[tuple[int, PortalResult], ...] = ()
    redistribution_rounds_run: int = 0
    topup_sensors_gained: int = 0
    sampled_shortfall: int = 0
    pool_exhausted_shards: tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        """True when at least one routed shard's answer (first-round,
        top-up, or still in flight past a streaming deadline) is
        missing."""
        return bool(self.failed_shards or self.deferred_shards)


@dataclass
class FederatedBatchResult:
    """Per-query gathered results plus merged batch accounting.

    ``stats`` sums the shards' streamed maintenance, and its collection
    is the makespan across shards (matching the scatter's concurrency)
    plus the slowest top-up; the tick's probe totals are the sum of the
    merged answers' ``QueryStats``, top-ups included.  ``shard_seconds``
    is the modeled end-to-end seconds each shard spent on its sub-batch
    (processing + collection + streamed-maintenance charge + retry
    penalties) — the federation bench's throughput denominator is its
    max.
    """

    results: list[FederatedResult] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)
    shard_seconds: dict[int, float] = field(default_factory=dict)
    failed_shards: tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.failed_shards)


@dataclass
class _ShardState:
    """Coordinator-side health record of one shard."""

    killed: bool = False
    # Modeled seconds the shard's last crash recovery took; consumed by
    # the next ``_scatter_calls`` as a one-time delay so the revival cost
    # lands on the gather clock instead of vanishing.
    pending_recovery_seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class Plan:
    """One federated query, written down before anything is sent.

    ``subqueries`` are the ``(shard id, sub-query)`` pairs a scatter
    sends, in shard-id order.  ``target`` is the federated SAMPLESIZE
    (``None``: exact) and ``target_readings`` the same in readings, the
    unit ``result_weight`` counts in.  ``topup_rounds`` is how many
    REDISTRIBUTE rounds may still run: 0 when the query is exact, routes
    one shard, or redistribution is off.  A top-up plan carries
    ``shares``, the new readings each sub-query must add.  ``deadline``
    is the publish deadline of a streaming gather (``math.inf``: wait
    for every shard); ``None`` is the synchronous gather."""

    query: SensorQuery
    routes: tuple[ShardRoute, ...]
    subqueries: tuple[tuple[int, SensorQuery], ...]
    target: int | None
    target_readings: int | None
    topup_rounds: int
    deadline: float | None = None
    shares: Mapping[int, int] | None = None


@dataclass(slots=True)
class _Gather:
    """What a scatter collected for one plan.

    A round fills the first four fields: the shards' answers, the shards
    that never answered, the retry/recovery seconds each is charged in
    the gather makespan, and the retries each took.  The rest is what
    top-up rounds added — answers in collection order, shards lost,
    makespan seconds, rounds, sensors gained, shortfall left — and the
    per-shard state the next round is planned from: readings achieved,
    distinct sensors delivered, shards with nothing left to give."""

    penalties: dict[int, float] = field(default_factory=dict)
    shard_results: dict = field(default_factory=dict)
    failed: list[int] = field(default_factory=list)
    retries: dict[int, int] = field(default_factory=dict)
    topups: list[tuple[int, PortalResult]] = field(default_factory=list)
    topup_failed: list[int] = field(default_factory=list)
    topup_seconds: float = 0.0
    rounds_run: int = 0
    gained: int = 0
    shortfall: int = 0
    achieved: dict[int, int] = field(default_factory=dict)
    delivered: dict[int, set[int]] = field(default_factory=dict)
    drained: set[int] = field(default_factory=set)

    def absorb(self, plan: Plan, round_: "_Gather") -> int:
        """Fold in the top-up round ``plan`` scattered; returns the
        sensors it gained.  Each answer is cut to at most its share of
        new sensors; a shard that gains less, or reports its pool
        exhausted, is drained.  The round is one more makespan slot."""
        self.topup_failed += round_.failed
        slots = [0.0] + [round_.penalties.get(sid, 0.0) for sid in round_.failed]
        gained = 0
        for sid, result in round_.shard_results.items():
            seen = self.delivered.setdefault(sid, set())
            share = plan.shares[sid]
            new_ids = _capped_new_ids(result, seen, share)
            _dedup_topup_result(result, new_ids)
            self.topups.append((sid, result))
            got = len(new_ids)
            seen |= new_ids
            self.achieved[sid] = self.achieved.get(sid, 0) + got
            gained += got
            if got < share or result.pool_exhausted:
                self.drained.add(sid)
            slots.append(result.collection_seconds + round_.penalties.get(sid, 0.0))
        self.rounds_run += 1
        self.gained += gained
        self.topup_seconds += max(slots)
        return gained


class FederatedPortal:
    """N portal shards behind one scatter-gather front end.

    Where the shards run is the backend's business
    (:mod:`repro.federation.backend`), chosen once from
    ``FederationConfig.execution``: ``"inprocess"`` keeps every shard a
    ``SensorMapPortal`` in the coordinator's process, ``"process"`` runs
    each in its own worker process.  The coordinator hands a backend one
    :class:`~repro.federation.backend.ShardSpec` per shard and from then
    on reaches shards by id only — one named ``call``, or one ``attempt``
    at a batch of calls (sequential in-process, pipelined across
    workers).  The retry budget, backoff and recovery charge live once,
    in :meth:`_scatter_calls`.
    """

    def __init__(
        self,
        n_shards: int = 1,
        partitioner: Partitioner | None = None,
        config: COLRTreeConfig | None = None,
        cost_model: ProcessingCostModel | None = None,
        value_fn=None,
        network_seed: int = 0,
        clock: SimClock | None = None,
        max_sensors_per_query: int | None = 1000,
        transport: "TransportConfig | None" = None,
        network_options: dict[str, object] | None = None,
        federation: FederationConfig | None = None,
        storage: "StorageConfig | None" = None,
    ) -> None:
        """Constructor arguments mirror ``SensorMapPortal`` (every shard
        is built with them); ``partitioner`` defaults to a spatial
        ``GridPartitioner(n_shards)``, and shard ``i``'s network draws
        from ``network_seed + i`` so shard 0 of a single-shard
        federation is seed-identical to the unsharded portal.

        ``storage`` roots a per-shard durable data directory under
        ``storage.data_dir/shard-<i>``: each shard journals its own
        registrations and slot-cache batches, ``kill_shard`` abandons
        the shard's WAL mid-flight, and ``revive_shard`` performs real
        recovery from disk — its modeled replay time is charged to the
        shard's next gather.  A re-partition that changes a shard's
        sensor set wipes that shard's stale directory first."""
        self.partitioner = (
            partitioner if partitioner is not None else GridPartitioner(n_shards)
        )
        self.config = config if config is not None else COLRTreeConfig()
        self.cost_model = cost_model if cost_model is not None else ProcessingCostModel()
        self.max_sensors_per_query = max_sensors_per_query
        self.transport_config = transport
        self.federation = federation if federation is not None else FederationConfig()
        self.clock = clock if clock is not None else SimClock()
        self.registry = SensorRegistry()
        self.stats = FederationStats()
        self._value_fn = value_fn
        self._network_seed = network_seed
        self._network_options = dict(network_options) if network_options else {}
        self.storage_config = storage
        if self.federation.execution == "process":
            from repro.parallel.portal import ProcessBackend

            self._backend = ProcessBackend(self.clock)
        else:
            self._backend = InProcessBackend(self.clock)
        self._groups: list[list[Sensor]] = []
        self._directory: ShardDirectory | None = None
        self._states: dict[int, _ShardState] = {}
        self._index_dirty = True
        # Monotone build counter, mirroring SensorMapPortal's: a
        # rebuild re-partitions the fleet and rebuilds every shard, so
        # result caches above the coordinator key their validity on it.
        self.index_generation = 0
        # Rebalance subscribers: callables invoked with the moved
        # sensors after each committed membership change.  The front
        # door registers here for cell-precise invalidation — a
        # rebalance deliberately does NOT bump ``index_generation``
        # (that would strand every cached tile, the cold storm this
        # subsystem exists to avoid).
        self.rebalance_listeners: list = []

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
        sensor = self.registry.register(
            location,
            expiry_seconds,
            sensor_type=sensor_type,
            availability=availability,
            metadata=metadata,
        )
        self._index_dirty = True
        return sensor

    def register_all(self, sensors: list[Sensor]) -> None:
        self.registry.register_all(sensors)
        self._index_dirty = True

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------
    def rebuild_index(self) -> None:
        """Partition the fleet and (re)build every shard.

        Kill switches and health state survive a rebuild per shard id
        (the operator killed "shard 3", not a particular index build);
        an id that disappears (fewer shards) drops its state.
        """
        if len(self.registry) == 0:
            raise ValueError("no sensors registered")
        sensors = self.registry.all()
        assignment = self.partitioner.assign(sensors)
        if len(assignment) != len(sensors):
            raise ValueError("partitioner returned a misaligned assignment")
        n = self.partitioner.n_shards
        groups: list[list[Sensor]] = [[] for _ in range(n)]
        for sensor, shard_id in zip(sensors, assignment):
            if not 0 <= shard_id < n:
                raise ValueError(f"partitioner assigned shard {shard_id} of {n}")
            groups[shard_id].append(sensor)
        # Compact away empty shards (a k-means run on a tiny fleet can
        # starve a cluster) so every built shard has an index.
        groups = [g for g in groups if g]
        self._backend.close()
        if self.storage_config is not None:
            self._wipe_stale_shard_dirs(groups)
        self._directory = ShardDirectory(groups)
        self._groups = groups
        self._states = {
            shard_id: self._states.get(shard_id, _ShardState())
            for shard_id in range(len(groups))
        }
        recovered = self._backend.build_all(
            [self._spec(shard_id, group) for shard_id, group in enumerate(groups)]
        )
        for shard_id, seconds in enumerate(recovered):
            self._charge_recovery(shard_id, seconds)
        self._index_dirty = False
        self.index_generation += 1

    def _spec(self, shard_id: int, group: list[Sensor]) -> ShardSpec:
        """What shard ``shard_id`` is built from on either backend; its
        durable directory is ``storage.data_dir/shard-<id>``."""
        storage = self.storage_config
        return ShardSpec(
            shard_id=shard_id,
            sensors=group,
            config=self.config,
            cost_model=self.cost_model,
            value_fn=self._value_fn,
            network_seed=self._network_seed + shard_id,
            max_sensors_per_query=self.max_sensors_per_query,
            transport=self.transport_config,
            network_options=self._network_options,
            storage=None if storage is None else storage.for_shard(shard_id),
        )

    def _wipe_stale_shard_dirs(self, groups: list[list[Sensor]]) -> None:
        """Wipe any shard directory whose durable sensor set no longer
        matches the (re-)partition — a stale cache under a different
        fleet must not survive into recovery."""
        from repro.storage.engine import stored_sensor_ids, wipe_data_dir

        for shard_id, group in enumerate(groups):
            shard_cfg = self.storage_config.for_shard(shard_id)
            stored = stored_sensor_ids(shard_cfg)
            if stored and stored != {s.sensor_id for s in group}:
                wipe_data_dir(shard_cfg.path)
        # Directories beyond the current shard count are stale too.
        shard_id = len(groups)
        while True:
            shard_cfg = self.storage_config.for_shard(shard_id)
            if not shard_cfg.path.exists():
                break
            wipe_data_dir(shard_cfg.path)
            shard_id += 1

    def _charge_recovery(self, shard_id: int, seconds: float) -> float:
        """Book one shard recovery: its modeled replay seconds delay
        the shard's next gather.  Returns ``seconds``."""
        if seconds > 0.0:
            state = self._states.setdefault(shard_id, _ShardState())
            state.pending_recovery_seconds += seconds
            self.stats.shard_recoveries += 1
            self.stats.recovery_seconds_total += seconds
        return seconds

    def _ensure_index(self) -> None:
        if self._index_dirty or not self._groups:
            self.rebuild_index()

    @property
    def n_shards(self) -> int:
        self._ensure_index()
        return len(self._groups)

    @property
    def directory(self) -> ShardDirectory:
        self._ensure_index()
        assert self._directory is not None
        return self._directory

    def occupied_tiles(self, sensor_type: str | None) -> frozenset[Cell] | None:
        """The front-door tiles whose closed rectangles hold a sensor of
        ``sensor_type`` (``None``: of any type) on some shard, killed
        ones included, as the directory committed them; ``None`` when
        not known (the index is dirty, no shard hosts the type, or a
        sensor lies too far out, see ``grid.occupancy``)."""
        if self._index_dirty or self._directory is None:
            return None
        return self._directory.occupancy.get(sensor_type)

    def shard(self, shard_id: int) -> SensorMapPortal:
        """One shard portal held in this process (``IndexError`` for a
        shard that lives in a worker)."""
        return self.shards()[shard_id]

    def shards(self) -> list[SensorMapPortal]:
        """The shard portals held in this process: all of them
        in-process, none when shards live in workers."""
        self._ensure_index()
        return self._backend.portals()

    def worker_pid(self, shard_id: int) -> int | None:
        """The pid of the worker process serving a shard, or ``None``
        (in-process shard, or a worker known to be dead)."""
        return self._backend.pid(shard_id)

    def shard_members(self, shard_id: int) -> list[Sensor]:
        """The sensors one shard currently owns (copy)."""
        self._ensure_index()
        return list(self._groups[shard_id])

    # ------------------------------------------------------------------
    # Shard health
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: int) -> None:
        """A shard outage: scatters to it fail until revived.  The
        backend makes it real — an abandoned WAL for a durable
        in-process shard, SIGKILL for a worker."""
        self._ensure_index()
        self._states[shard_id].killed = True
        self._backend.kill(shard_id)

    def shard_killed(self, shard_id: int) -> bool:
        """Whether the operator's kill switch is on for this shard."""
        self._ensure_index()
        return self._states[shard_id].killed

    def revive_shard(self, shard_id: int) -> float:
        """Bring a killed shard back; returns the modeled recovery
        seconds, also charged to the shard's next gather.  An in-memory
        in-process shard revives instantly with its caches intact
        (0.0); a worker restarts cold; with storage attached either
        backend rebuilds the shard from its data directory — checkpoint
        pages and WAL records replay, caches re-install."""
        self._ensure_index()
        state = self._states[shard_id]
        state.killed = False
        return self._charge_recovery(
            shard_id,
            self._backend.revive(self._spec(shard_id, self._groups[shard_id])),
        )

    # ------------------------------------------------------------------
    # Live rebalancing (membership changes without a full rebuild)
    # ------------------------------------------------------------------
    def notify_rebalance(self, moved: Sequence[Sensor]) -> None:
        """Tell subscribers which sensors changed owner, joined or left
        the fleet (commit time)."""
        for listener in list(self.rebalance_listeners):
            listener(moved)

    def rebalance_capture(
        self, shard_id: int, sensor_ids: Sequence[int] | None = None
    ) -> list:
        """Export a shard's warm slot-cache entries for migration.

        Raises :class:`ShardDownError` when the shard is killed — the
        migration step then aborts cleanly before mutating anything."""
        self._ensure_index()
        if self._states[shard_id].killed:
            raise ShardDownError(f"shard {shard_id} is down")
        ids = list(sensor_ids) if sensor_ids is not None else None
        return list(self._backend.call(shard_id, "export_cache", ids))

    def rebalance_apply(
        self,
        changes: Mapping[int, list[Sensor]],
        primed: Mapping[int, Sequence[tuple]] | None = None,
        drop: Sequence[int] = (),
        on_staged=None,
    ) -> None:
        """Apply one membership change: stage every affected shard, then
        commit with a single directory flip.

        ``changes`` maps shard id -> its complete new population (ids at
        the current count append shards); ``primed`` carries migrated
        cache entries per target shard; ``drop`` removes trailing shard
        ids.  Only the affected shards cycle — the rest keep serving
        untouched.  A query racing the step routes via the old directory
        to the old owners or, after the flip, via the new directory to
        the new ones.  Either owner answers; never both, never neither.
        ``on_staged`` (tests, fault injection) runs between the phases.
        No ``index_generation`` bump: caches above stay valid except
        where :meth:`notify_rebalance` invalidates."""
        self._ensure_index()
        assert self._directory is not None
        surviving = len(self._groups) - len(drop)
        appended = sorted(shard_id for shard_id in changes if shard_id >= surviving)
        if appended != list(range(surviving, surviving + len(appended))):
            raise ValueError(f"staged shards {appended} would leave a gap")
        staged = {
            shard_id: self._backend.stage(
                self._spec(shard_id, group), (primed or {}).get(shard_id, ())
            )
            for shard_id, group in sorted(changes.items())
        }
        if on_staged is not None:
            on_staged()
        recovered = self._backend.commit(staged, drop)
        for shard_id in sorted(drop, reverse=True):
            self._groups.pop(shard_id)
            self._states.pop(shard_id, None)
            if self.storage_config is not None:
                from repro.storage.engine import wipe_data_dir

                wipe_data_dir(self.storage_config.for_shard(shard_id).path)
        for shard_id in sorted(changes):
            if shard_id < len(self._groups):
                self._groups[shard_id] = list(changes[shard_id])
            else:
                self._groups.append(list(changes[shard_id]))
            self._states.setdefault(shard_id, _ShardState())
            self._charge_recovery(shard_id, recovered[shard_id])
        # The commit point for routing: one atomic row-list swap.
        self._directory.refresh(changes, drop=drop)

    def _scatter_calls(
        self, calls: Sequence[tuple[int, str, tuple]]
    ) -> tuple[dict[int, object], list[int], dict[int, float], dict[int, int]]:
        """Run one scatter of ``(shard_id, op, args)`` calls under the
        retry budget; returns the replies by shard, the shards that never
        answered, and the seconds and retries each shard was charged.

        Each round attempts every still-unanswered shard once
        (the backend's ``attempt``); a shard that stays silent is charged
        the next exponential backoff step and retried in the following
        round.  Once the budget is spent the shard is marked failed.
        Delays accumulate into the shard's ``penalties`` slot of the
        gather makespan.
        """
        budget = self.federation.shard_retry_budget
        penalties: dict[int, float] = {}
        retries: dict[int, int] = {}
        for shard_id, _, _ in calls:
            # A freshly revived shard pays its crash-recovery replay time
            # on its first gather (consumed exactly once).
            state = self._states[shard_id]
            penalties[shard_id] = state.pending_recovery_seconds
            state.pending_recovery_seconds = 0.0
        pending = list(calls)
        replies: dict[int, object] = {}
        for attempt in range(budget + 1):
            if not pending:
                break
            self.stats.shard_attempts += len(pending)
            # A killed shard fails the attempt without doing any work.
            answered = self._backend.attempt(
                [c for c in pending if not self._states[c[0]].killed]
            )
            replies.update(answered)
            pending = [c for c in pending if c[0] not in answered]
            for shard_id, _, _ in pending:
                if attempt < budget:
                    self.stats.shard_retries += 1
                    retries[shard_id] = retries.get(shard_id, 0) + 1
                    penalties[shard_id] += (
                        RETRY_BACKOFF_BASE * RETRY_BACKOFF_MULTIPLIER**attempt
                    )
                else:
                    self.stats.shard_failures += 1
        results: dict[int, object] = {}
        failed: list[int] = []
        for shard_id, _, _ in calls:
            reply = replies.get(shard_id)
            if reply is None:
                failed.append(shard_id)
            else:
                results[shard_id] = reply
        return results, failed, penalties, retries

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self, query: SensorQuery, deadline: float | None = None) -> Plan:
        """The :class:`Plan` one query runs.  Pure: it sends and counts
        nothing, so ``explain`` returns what ``execute`` would scatter.

        The target follows ``SensorMapPortal._effective_sample_size``
        one level up: on a capped federation a missing (or zero)
        SAMPLESIZE samples at the cap and explicit targets clamp to it;
        uncapped, a missing SAMPLESIZE stays exact everywhere."""
        if deadline is not None:
            # Negated, as in ``Rect``: a NaN deadline is rejected too.
            if not deadline > 0:
                raise ValueError("deadline_seconds must be positive or None")
            deadline = float(deadline)
        self._ensure_index()
        directory = self._directory
        assert directory is not None
        kind = query.sensor_type
        if kind is not None and not directory.has_type(kind):
            raise KeyError(f"no sensors of type {kind!r} registered")
        routes = tuple(directory.route(query.region, kind))
        cap = self.max_sensors_per_query
        target = query.sample_size or None
        if cap is not None:
            target = cap if target is None else min(target, cap)
        if target is None:
            # A genuine polygon sent to several shards is clipped
            # (Sutherland–Hodgman, boundary-inclusive) to each shard's
            # MBR, which holds every sensor of the shard; an edge or
            # corner touch keeps the whole polygon.  A lone route passes
            # the query through, bit-identical to the unsharded portal.
            readings = None
            clip = len(routes) > 1 and isinstance(query.region, Polygon)
            subqueries = []
            for r in routes:
                sub = query
                if clip:
                    clipped = query.region.clip_to_rect(directory.entry(r.shard_id).mbr)
                    if clipped is not None:
                        sub = replace(query, region=clipped)
                subqueries.append((r.shard_id, sub))
        else:
            # Shard portals sample per type tree (Section III-B), so an
            # untyped target asks for ``target`` readings of every type.
            readings = target
            if kind is None:
                types = set().union(*(e.sensor_types for e in directory.entries()))
                readings *= max(1, len(types))
            shares = ShardDirectory.split_target(target, routes)
            subqueries = [
                (r.shard_id, replace(query, sample_size=shares[r.shard_id]))
                for r in routes
                if shares[r.shard_id]
            ]
        # A single routed shard already ran Algorithm 2 over its whole
        # pool: nothing to borrow, and no extra shard call or RNG draw
        # keeps the 1-shard federation bit-identical to the portal.
        rounds = self.federation.redistribution_rounds
        return Plan(
            query=query,
            routes=routes,
            subqueries=tuple(subqueries),
            target=target,
            target_readings=readings,
            topup_rounds=rounds if target is not None and len(routes) > 1 else 0,
            deadline=deadline,
        )

    def _topup(self, plan: Plan, gather: _Gather) -> Plan | None:
        """The next cross-shard REDISTRIBUTE round (Algorithm 2 one level
        up) after ``plan``'s round, or ``None`` when none is left to run.

        The shortfall, in readings, is re-split over the shards with
        *remaining pool* (``ShardDirectory.residual_routes``), never
        past a shard's residual; drained, failed and killed shards are
        excluded.  A request is *incremental* — the shard's distinct
        total so far plus its share, in whole SAMPLESIZE units of its
        type-tree fan-out — so the slot caches earlier rounds warmed
        serve the repeat without probes (:meth:`_Gather.absorb` strips
        it) and the sampler walks on to new sensors."""
        if not plan.topup_rounds:
            return None
        shortfall = plan.target_readings - sum(gather.achieved.values())
        if shortfall < 1:
            return None
        exclude = gather.drained | set(gather.failed) | set(gather.topup_failed)
        for route in plan.routes:
            state = self._states.get(route.shard_id)
            if state is None or state.killed:
                exclude.add(route.shard_id)
        directory = self._directory
        assert directory is not None
        residual = directory.residual_routes(plan.routes, gather.achieved, exclude)
        if not residual:
            return None
        caps = {r.shard_id: int(r.weight) for r in residual}
        split = ShardDirectory.split_target_capped(shortfall, residual, caps)
        shares = {r.shard_id: split[r.shard_id] for r in residual if split[r.shard_id]}
        query = plan.query
        subqueries = []
        for sid, share in shares.items():
            per_unit = 1
            if query.sensor_type is None:
                per_unit = max(1, len(directory.entry(sid).sensor_types))
            units = -(-(len(gather.delivered.get(sid, ())) + share) // per_unit)
            subqueries.append((sid, replace(query, sample_size=units)))
        return replace(
            plan,
            subqueries=tuple(subqueries),
            topup_rounds=plan.topup_rounds - 1,
            shares=shares,
        )

    # ------------------------------------------------------------------
    # Scatter and gather
    # ------------------------------------------------------------------
    def _scatter(self, plans: Sequence[Plan]) -> tuple[list[_Gather], tuple]:
        """Send plans as one round: each shard gets every sub-query
        planned for it as one ``execute_batch`` call, and the answers
        are dealt back per plan — so every entry point issues the same
        shard calls, RNG draws and answers for the same plans.

        Returns a :class:`_Gather` per plan, all sharing the round's
        ``penalties``, and the round itself as :meth:`_scatter_calls`
        returns it (its replies the shards' ``BatchResult``).  The
        scatter counters of :class:`FederationStats` are counted here
        and nowhere else."""
        stats = self.stats
        for plan in plans:
            if plan.shares is not None:
                stats.topup_subqueries += len(plan.subqueries)
                continue
            stats.queries += 1
            stats.subqueries_scattered += len(plan.subqueries)
            if plan.deadline is not None:
                stats.streaming_queries += 1
            if plan.routes:
                if plan.target is None:
                    stats.exact_broadcasts += 1
                else:
                    stats.sampled_splits += 1
                stats.zero_share_skips += len(plan.routes) - len(plan.subqueries)
        # Per shard, its sub-queries and the plan each one answers.
        subqueries: dict[int, list[SensorQuery]] = {}
        owners: dict[int, list[int]] = {}
        for i, plan in enumerate(plans):
            for sid, subquery in plan.subqueries:
                subqueries.setdefault(sid, []).append(subquery)
                owners.setdefault(sid, []).append(i)
        round_ = self._scatter_calls(
            [(sid, "execute_batch", (subqueries[sid],)) for sid in sorted(subqueries)]
        )
        batches, failed, penalties, retries = round_
        gathers = [_Gather(penalties=penalties) for _ in plans]
        if failed or retries:
            for gather, plan in zip(gathers, plans):
                sent = {sid for sid, _ in plan.subqueries}
                gather.failed = [sid for sid in failed if sid in sent]
                gather.retries = {sid: n for sid, n in retries.items() if sid in sent}
        for sid, batch in batches.items():
            for i, result in zip(owners[sid], batch.results):
                gathers[i].shard_results[sid] = result
        return gathers, round_

    def _gather(self, plan: Plan, gather: _Gather) -> StreamingGather:
        """Everything after a plan's first round: its top-up rounds,
        then the merge.  A plan with a deadline streams: top-ups launch
        at the last *answering* shard's landing (overlapping a failing
        shard's retry tail; on a healthy fleet that is the makespan, and
        the merge is the synchronous one), and ``first`` is cut at the
        deadline, stragglers and unknown failures ``deferred_shards``."""
        if plan.topup_rounds:
            # Mild under-delivery does not drain a shard (a round drains
            # one that gains less than its share); an exhausted pool does.
            for sid, result in gather.shard_results.items():
                gather.achieved[sid] = result.result_weight
                gather.delivered[sid] = {
                    r.sensor_id
                    for answer in result.answers
                    for r in (*answer.probed_readings, *answer.cached_readings)
                }
                if result.pool_exhausted:
                    gather.drained.add(sid)
            topup = self._topup(plan, gather)
            while topup is not None:
                (round_,), _ = self._scatter([topup])
                gained = gather.absorb(topup, round_)
                topup = self._topup(topup, gather) if gained else None
            gather.shortfall = max(
                0, plan.target_readings - sum(gather.achieved.values())
            )
            if gather.rounds_run:
                self.stats.redistributions += 1
                self.stats.redistribution_rounds_run += gather.rounds_run
                self.stats.topup_sensors_gained += gather.gained
            self.stats.sampled_shortfall += gather.shortfall
        deadline = plan.deadline
        arrivals: list[ShardArrival] = []
        topup_start = None
        if deadline is not None:
            penalties = gather.penalties
            arrivals = [
                ShardArrival(sid, r.collection_seconds + penalties.get(sid, 0.0), "ok")
                for sid, r in gather.shard_results.items()
            ]
            arrivals += [
                ShardArrival(sid, penalties.get(sid, 0.0), "failed")
                for sid in gather.failed
            ]
            arrivals.sort(key=lambda a: (a.landed_at, a.shard_id))
            # Top-ups need every answering shard's round-1 count: the
            # earliest they launch is the last *ok* landing.
            topup_start = max(
                (a.landed_at for a in arrivals if a.status == "ok"), default=0.0
            )
        final = self._merge(plan, gather, topup_start)
        if final.partial:
            self.stats.partial_answers += 1
        first = final
        if deadline is not None and final.collection_seconds > deadline:
            late = [a for a in arrivals if a.landed_at > deadline]
            deferred = [a.shard_id for a in late if a.status == "ok"]
            # Failures only *known* by the deadline make the published
            # record: a shard still burning its retry backoff is pending,
            # like a slow healthy one.  A top-up that completed by the
            # deadline is merged (its casualties are known by then too).
            done = gather.rounds_run and topup_start + gather.topup_seconds <= deadline
            landed = gather.shard_results.items()
            cut = replace(
                gather if done else _Gather(gather.penalties, retries=gather.retries),
                shard_results={sid: r for sid, r in landed if sid not in deferred},
                failed=[
                    a.shard_id
                    for a in arrivals
                    if a.status == "failed" and a.landed_at <= deadline
                ],
            )
            first = self._merge(plan, cut, topup_start)
            first.deferred_shards = tuple(deferred) + tuple(
                a.shard_id for a in late if a.status != "ok"
            )
            # The coordinator holds the publish until the deadline in
            # case a straggler makes it; it did not, so the partial
            # answer goes out exactly then.
            first.collection_seconds = deadline
            self.stats.deferred_shard_answers += len(first.deferred_shards)
        return StreamingGather(
            query=plan.query,
            deadline_seconds=deadline,
            arrivals=tuple(arrivals),
            first=first,
            final=final,
        )

    def _merge(
        self, plan: Plan, gather: _Gather, topup_start: float | None
    ) -> FederatedResult:
        """Merge one query's shard answers, then its top-up answers, in
        shard-id order.  ``topup_start`` is when a streaming gather
        launched its top-ups (``None``: after the whole first round)."""
        shard_results, penalties = gather.shard_results, gather.penalties
        failed = list(gather.failed)
        failed += [sid for sid in gather.topup_failed if sid not in failed]
        answers = []
        groups = []
        processing = 0.0
        slot_seconds: list[float] = []
        for shard_id in sorted(shard_results):
            result = shard_results[shard_id]
            answers.extend(result.answers)
            groups.append(result.groups)
            processing += result.processing_seconds
            slot_seconds.append(
                result.collection_seconds + penalties.get(shard_id, 0.0)
            )
        # Shards that never answered round 1 still occupy the gather
        # until their retries ran out (a shard that answered round 1 but
        # died in a top-up round is charged in the top-up's own makespan
        # slot instead).
        for shard_id in failed:
            if shard_id not in shard_results:
                slot_seconds.append(penalties.get(shard_id, 0.0))
        collection = max(slot_seconds, default=0.0)
        if topup_start is None:
            # Synchronous gather: round 2+ happens strictly after the
            # first gather, so its makespan charges are additive.
            collection += gather.topup_seconds
        elif gather.rounds_run:
            # Streaming gather: with no failure the launch instant is
            # the makespan itself and this reduces to the additive sum.
            collection = max(collection, topup_start + gather.topup_seconds)
        for _, result in gather.topups:
            answers.extend(result.answers)
            groups.append(result.groups)
            processing += result.processing_seconds
        return FederatedResult(
            query=plan.query,
            groups=concat_groups(groups),
            answers=answers,
            processing_seconds=processing,
            collection_seconds=collection,
            sample_requested=plan.target_readings,
            shard_results=shard_results,
            failed_shards=tuple(failed),
            shard_retries=sum(gather.retries.values()),
            topup_results=tuple(gather.topups),
            redistribution_rounds_run=gather.rounds_run,
            topup_sensors_gained=gather.gained,
            sampled_shortfall=gather.shortfall,
            pool_exhausted_shards=tuple(sorted(gather.drained)),
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, query: SensorQuery) -> FederatedResult:
        """Plan one query, scatter it, gather — topping a short sampled
        query up first.  The scatter is :meth:`execute_batch`'s, for a
        batch of one, without the tick's accounting."""
        plan = self._plan(normalize_region(query))
        (gather,), _ = self._scatter([plan])
        return self._gather(plan, gather).final

    # Only because the e2e tracer's TRACE_POINTS names it (ROADMAP item 6(e)).
    execute_polygon = execute

    def execute_streaming(
        self, query: SensorQuery, deadline_seconds: float | None = None
    ) -> "StreamingGather":
        """:meth:`execute`'s plan and shard calls, gathered as answers
        land in modeled time: ``first`` is the answer publishable
        ``deadline_seconds`` (positive; ``None``: everything, and
        ``first is final``) after the scatter, ``final`` the complete
        merge (:meth:`_gather`)."""
        plan = self._plan(
            normalize_region(query),
            math.inf if deadline_seconds is None else deadline_seconds,
        )
        (gather,), _ = self._scatter([plan])
        streamed = self._gather(plan, gather)
        if deadline_seconds is None:
            # ``math.inf`` only tells ``_gather`` to stream; the caller
            # asked for no deadline.
            streamed.deadline_seconds = None
        return streamed

    def execute_batch(self, queries: Sequence[SensorQuery]) -> FederatedBatchResult:
        """One tick's queries, scattered per shard as *sub-batches*.

        Each shard receives every sub-query routed to it as one
        ``execute_batch`` call, so shard-local coalescing/dedup applies
        across the whole tick; the gather reassembles per-query merged
        results in submission order.  A shard that fails degrades every
        query that routed to it (those results come back partial)
        without failing the tick.
        """
        self._ensure_index()
        self.stats.batch_ticks += 1
        if not queries:
            return FederatedBatchResult(stats=BatchStats())
        plans = [self._plan(normalize_region(query)) for query in queries]
        gathers, (batches, failed, penalties, _) = self._scatter(plans)
        # Each short sampled query tops up after the tick's first round;
        # the top-ups run concurrently across queries, so the tick is
        # charged the *max* top-up collection.
        results = [
            self._gather(plan, gather).final for plan, gather in zip(plans, gathers)
        ]
        topup_collection = max(g.topup_seconds for g in gathers)

        stats = BatchStats()
        shard_seconds: dict[int, float] = {}
        slot_seconds: list[float] = [0.0]
        for shard_id, batch in batches.items():
            s = batch.stats
            stats.maintenance_ops += s.maintenance_ops
            slot = s.collection_seconds + penalties.get(shard_id, 0.0)
            slot_seconds.append(slot)
            shard_seconds[shard_id] = (
                sum(r.processing_seconds for r in batch.results)
                + slot
                + s.maintenance_ops * self.cost_model.per_maintenance_op
            )
        for shard_id in failed:
            slot = penalties.get(shard_id, 0.0)
            slot_seconds.append(slot)
            shard_seconds[shard_id] = slot
        stats.collection_seconds = max(slot_seconds) + topup_collection
        # Top-up work lands on the answering shard's own bill too.
        for merged in results:
            for sid, extra in merged.topup_results:
                shard_seconds[sid] = shard_seconds.get(sid, 0.0) + (
                    extra.processing_seconds + extra.collection_seconds
                )
        return FederatedBatchResult(
            results=results,
            stats=stats,
            shard_seconds=shard_seconds,
            # Every first-round casualty was routed by some query, so the
            # per-query records already cover it alongside the top-up ones.
            failed_shards=tuple(
                sorted({sid for r in results for sid in r.failed_shards})
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, query: SensorQuery) -> dict[str, object]:
        """Federated EXPLAIN: the :class:`Plan` :meth:`execute` would run
        (its sub-queries, target and top-up rounds are the plan's own
        fields), each planned shard's own EXPLAIN, and the totals over
        them: expected probes, and the cache coverage of every shard's
        plans summed (:func:`repro.core.explain.cache_coverage`).
        Read-only: no retries, no counters; killed or unreachable
        shards are skipped and listed."""
        plan = self._plan(normalize_region(query))
        per_shard: dict[int, dict[str, object]] = {}
        skipped: list[int] = []
        for shard_id, subquery in plan.subqueries:
            if self._states[shard_id].killed:
                skipped.append(shard_id)
                continue
            try:
                per_shard[shard_id] = self._backend.call(shard_id, "explain", subquery)
            except ShardDownError:
                skipped.append(shard_id)
        return {
            "plan": plan,
            "shards": per_shard,
            "skipped_shards": skipped,
            "expected_probes": sum(
                float(e["expected_probes"]) for e in per_shard.values()
            ),
            "cache_coverage": cache_coverage(
                p for e in per_shard.values() for p in e["plans"].values()
            ),
        }

    def stats_summary(self) -> dict[str, object]:
        """Operational summary: directory, coordinator counters, and
        each shard's own ``stats()`` — ``{"down": True}`` for a shard
        that cannot be reached (its counters died with it)."""
        self._ensure_index()
        assert self._directory is not None
        return {
            "total_sensors": len(self.registry),
            "n_shards": len(self._groups),
            "directory": [
                {
                    "shard": e.shard_id,
                    "sensors": e.weight,
                    "mbr": (e.mbr.min_x, e.mbr.min_y, e.mbr.max_x, e.mbr.max_y),
                    "types": sorted(e.sensor_types),
                    "killed": self._states[e.shard_id].killed,
                }
                for e in self._directory.entries()
            ],
            "federation": asdict(self.stats),
            "shards": {i: self._shard_stats(i) for i in range(len(self._groups))},
        }

    def _shard_stats(self, shard_id: int) -> dict[str, object]:
        try:
            return self._backend.call(shard_id, "stats")
        except ShardDownError:
            return {"down": True}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Checkpoint every shard's storage engine (compact its WAL
        into a fresh page file).  Requires storage to be attached."""
        if self.storage_config is None:
            raise RuntimeError("federation has no storage attached")
        self._ensure_index()
        for shard_id in range(len(self._groups)):
            if self._states[shard_id].killed:
                continue
            self._backend.call(shard_id, "checkpoint")

    def close(self) -> None:
        """Release the shards: flush and close each in-process shard's
        storage engine (a no-op for in-memory shards, which stay
        queryable), or shut every worker process down."""
        self._backend.close()

    def __enter__(self) -> "FederatedPortal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
