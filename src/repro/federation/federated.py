"""The scatter-gather coordinator over partitioned portal shards.

``FederatedPortal`` mirrors the ``SensorMapPortal`` surface (register /
rebuild / execute / execute_batch / explain / stats) but
owns N shards, each a full portal — its own COLR-Trees, its own
``SensorNetwork``, its own ``ProbeDispatcher`` pool when transport is
enabled.  One simulated clock is shared so freshness bounds mean the
same thing everywhere.

Query flow:

1. **Route** — the :class:`~repro.federation.directory.ShardDirectory`
   intersects the query region with the shard MBRs (typed queries also
   require the shard to host the type).
2. **Scatter** — exact queries broadcast to every routed shard, a
   genuine polygon clipped to each shard's MBR; sampled queries split
   the target across routed shards by overlap-weighted shard weights
   (Algorithm 1's share rule one level above the trees), shares summing
   exactly to the target.  Shards whose share rounds to zero are
   skipped.  Each shard receives all the sub-queries planned for it as
   one ``execute_batch`` call — a lone query is a batch of one, and a
   polygon an ordinary sub-query its shard's executor may answer
   through a geoblock cell plan (:meth:`FederatedPortal._scatter_plans`).
3. **Gather** — per-shard answers merge in shard-id order: readings and
   sketches concatenate (each shard already enforced the freshness
   bound), processing sums, collection is the *makespan* across shards
   (they collect concurrently).
4. **Degrade** — a shard that raises :class:`ShardDownError` is retried
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

import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.aggregates import AggregateSketch
from repro.core.config import COLRTreeConfig
from repro.core.stats import ProcessingCostModel
from repro.federation.backend import InProcessBackend, ShardDownError, ShardSpec
from repro.federation.config import FederationConfig
from repro.federation.directory import ShardDirectory, ShardRoute
from repro.federation.partitioner import GridPartitioner, Partitioner
from repro.federation.streaming import ShardArrival, StreamingGather
from repro.geometry import GeoPoint, Polygon
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
    "ShardArrival",
    "ShardDownError",
    "StreamingGather",
]

# Simulated seconds charged to a failed shard's gather slot before its
# retry ``k`` (counting from 0): ``RETRY_BACKOFF_BASE *
# RETRY_BACKOFF_MULTIPLIER**k``.
RETRY_BACKOFF_BASE = 0.5
RETRY_BACKOFF_MULTIPLIER = 2.0

# The ``BatchStats`` counters a federated tick sums over its shards'
# sub-batches; the other three it works out itself (its own query count,
# the collection makespan, the coordinator's wall clock).
_BATCH_COUNTERS = tuple(
    f.name
    for f in fields(BatchStats)
    if f.name not in ("queries", "collection_seconds", "wall_seconds")
)


def _result_sensor_ids(result: PortalResult) -> set[int]:
    """The distinct sensors a shard answer carries readings for (cached
    aggregate sketches are anonymous and cannot be deduplicated, but
    the sampled answers redistribution deals in carry raw readings)."""
    ids: set[int] = set()
    for answer in result.answers:
        for reading in answer.probed_readings:
            ids.add(reading.sensor_id)
        for reading in answer.cached_readings:
            ids.add(reading.sensor_id)
    return ids


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
    shards_routed: int = 0
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

    ``stats`` sums the shard-level counters (collection is the makespan
    across shards, matching the scatter's concurrency); ``shard_stats``
    keeps each shard's own view; ``shard_seconds`` is the modeled
    end-to-end seconds each shard spent on its sub-batch (processing +
    collection + streamed-maintenance charge + retry penalties) — the
    federation bench's throughput denominator is its max.
    """

    results: list[FederatedResult] = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)
    shard_stats: dict[int, BatchStats] = field(default_factory=dict)
    shard_seconds: dict[int, float] = field(default_factory=dict)
    failed_shards: tuple[int, ...] = ()
    redistribution_rounds_run: int = 0
    topup_sensors_gained: int = 0

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


@dataclass
class _TopupOutcome:
    """What the cross-shard REDISTRIBUTE rounds produced for one query."""

    extra: list[tuple[int, PortalResult]] = field(default_factory=list)
    collection_seconds: float = 0.0
    rounds_run: int = 0
    sensors_gained: int = 0
    shortfall: int = 0
    failed: list[int] = field(default_factory=list)
    pool_exhausted: tuple[int, ...] = ()


@dataclass
class _Scatter:
    """One scatter round sorted by outcome: the shards that answered
    (``shard_results`` — one query's ``PortalResult`` answers, or the
    round's ``BatchResult`` sub-batches in
    :meth:`FederatedPortal._scatter_plans`), the ones that never did
    (``failed``), the retry/recovery seconds each is charged in the
    gather makespan (``penalties``) and the retries each took
    (``retries``).  :meth:`FederatedPortal._finish` attaches the query's
    ``topup``."""

    routes: Sequence[ShardRoute] = ()
    penalties: dict[int, float] = field(default_factory=dict)
    shard_results: dict = field(default_factory=dict)
    failed: list[int] = field(default_factory=list)
    retries: dict[int, int] = field(default_factory=dict)
    topup: _TopupOutcome | None = None


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

    def _scatter_calls(self, calls: Sequence[tuple[int, str, tuple]]) -> _Scatter:
        """Run one scatter of ``(shard_id, op, args)`` calls under the
        retry budget and sort the shards into answered / failed.

        Each round attempts every still-unanswered shard once
        (the backend's ``attempt``); a shard that stays silent is charged
        the next exponential backoff step and retried in the following
        round.  Once the budget is spent the shard is marked failed.
        Delays accumulate into the shard's ``penalties`` slot of the
        gather makespan.
        """
        budget = self.federation.shard_retry_budget
        scatter = _Scatter()
        penalties = scatter.penalties
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
                    scatter.retries[shard_id] = scatter.retries.get(shard_id, 0) + 1
                    penalties[shard_id] += (
                        RETRY_BACKOFF_BASE * RETRY_BACKOFF_MULTIPLIER**attempt
                    )
                else:
                    self.stats.shard_failures += 1
        for shard_id, _, _ in calls:
            reply = replies.get(shard_id)
            if reply is None:
                scatter.failed.append(shard_id)
            else:
                scatter.shard_results[shard_id] = reply
        return scatter

    # ------------------------------------------------------------------
    # Scatter planning
    # ------------------------------------------------------------------
    def _route(self, query: SensorQuery) -> list[ShardRoute]:
        assert self._directory is not None
        if query.sensor_type is not None and not self._directory.has_type(
            query.sensor_type
        ):
            raise KeyError(f"no sensors of type {query.sensor_type!r} registered")
        return self._directory.route(query.region, query.sensor_type)

    def _federated_target(self, query: SensorQuery) -> int | None:
        """The sample target the federation must split, or ``None`` for
        an exact broadcast.

        Reproduces ``SensorMapPortal._effective_sample_size``'s cap
        semantics one level up: on a capped federation a missing (or
        zero) SAMPLESIZE demotes to sampling at the cap and explicit
        targets clamp to it, so the scattered shares can never exceed
        the portal-wide collection cap; on an uncapped federation a
        missing SAMPLESIZE stays exact everywhere.
        """
        cap = self.max_sensors_per_query
        requested = query.sample_size
        if requested is None or requested == 0:
            return None if cap is None else cap
        return requested if cap is None else min(requested, cap)

    def _scatter_plan(
        self, query: SensorQuery, routes: Sequence[ShardRoute]
    ) -> list[tuple[int, SensorQuery]]:
        """The (shard id, sub-query) pairs one query scatters to, in
        shard-id order."""
        if not routes:
            return []
        target = self._federated_target(query)
        self.stats.shards_routed += len(routes)
        if target is None:
            self.stats.exact_broadcasts += 1
            return [
                (r.shard_id, self._clip_subquery(query, r.shard_id, len(routes)))
                for r in routes
            ]
        self.stats.sampled_splits += 1
        shares = ShardDirectory.split_target(target, routes)
        plan: list[tuple[int, SensorQuery]] = []
        for route in routes:
            share = shares[route.shard_id]
            if share == 0:
                self.stats.zero_share_skips += 1
                continue
            plan.append((route.shard_id, replace(query, sample_size=share)))
        return plan

    def _clip_subquery(
        self, query: SensorQuery, shard_id: int, n_routed: int
    ) -> SensorQuery:
        """The exact sub-query one routed shard receives.

        A genuine polygon scattered to several shards is clipped
        (Sutherland–Hodgman) to each shard's MBR, so a shard traverses
        only the polygon piece that can hold its sensors — the routed
        sub-query is the exact clipped polygon, never the polygon's MBR.
        Answer-preserving: every sensor of the shard lies inside its
        MBR, so polygon ∩ MBR keeps exactly the shard's in-polygon
        sensors (clipping is boundary-inclusive, like ``contains_point``).
        Single-shard scatters and rectangles (a rectangle drawn as a
        polygon is one by now: :func:`normalize_region`) pass through
        untouched, keeping the 1-shard federation bit-identical to the
        unsharded portal.
        """
        region = query.region
        if n_routed <= 1 or not isinstance(region, Polygon):
            return query
        assert self._directory is not None
        clipped = region.clip_to_rect(self._directory.entry(shard_id).mbr)
        if clipped is None:
            # Measure-zero overlap (edge/corner touch): keep the full
            # polygon — the shard's own leaf filter stays exact.
            return query
        return replace(query, region=clipped)

    # ------------------------------------------------------------------
    # Cross-shard REDISTRIBUTE (Algorithm 2 one level up)
    # ------------------------------------------------------------------
    def _readings_per_unit(self, query: SensorQuery, shard_id: int) -> int:
        """How many readings one unit of SAMPLESIZE asks a shard for.

        Shard portals sample per type tree, so an untyped query fans
        each unit out to every type the shard holds; a typed query runs
        on exactly one tree."""
        if query.sensor_type is not None:
            return 1
        assert self._directory is not None
        return max(1, len(self._directory.entry(shard_id).sensor_types))

    def _target_readings(self, query: SensorQuery, target: int | None) -> int | None:
        """The federated target in *readings*: what the unsharded portal
        would aim to collect for the same query (``target`` per type
        tree, Section III-B), which is the unit ``result_weight`` counts
        in and therefore the unit shortfalls are measured in."""
        if target is None:
            return None
        if query.sensor_type is not None:
            return target
        assert self._directory is not None
        types: set[str] = set()
        for e in self._directory.entries():
            types |= e.sensor_types
        return target * max(1, len(types))

    def _redistribute(self, query: SensorQuery, scatter: _Scatter) -> _TopupOutcome:
        """Top up a sampled scatter whose first gather came up short.

        Per round: compare the aggregate achieved count to ``target``,
        re-split the shortfall over shards with *remaining pool*
        (overlap-weighted residual capacity, integer-conserving up to
        provable pool exhaustion, never exceeding a shard's residual),
        and collect the top-up sub-queries.  A shard is excluded once it
        signals pool exhaustion or a top-up round gains less than its
        share (it has nothing left to give — its own Algorithm 2 already
        spread the request over its whole in-region pool), and when it
        failed or was killed.
        Each round's collection is charged as one more slot of the gather
        makespan; per-sensor dedup across rounds is the shard
        dispatcher's in-flight/recently-probed tables' job.

        Single-routed-shard scatters skip redistribution entirely, which
        keeps the 1-shard federation bit-identical to the unsharded
        portal (no extra shard calls, no extra RNG draws).
        """
        outcome = _TopupOutcome()
        cfg = self.federation
        target = self._federated_target(query)
        routes = scatter.routes
        shard_results = scatter.shard_results
        if target is None or cfg.redistribution_rounds <= 0 or len(routes) <= 1:
            return outcome
        # All coordinator arithmetic below runs in *readings* — the unit
        # ``result_weight`` counts in.  ``requested`` arrives in
        # SAMPLESIZE units (what the scatter plan carried) and converts
        # per shard by its type-tree fan-out.
        target_readings = self._target_readings(query, target)
        assert target_readings is not None
        achieved: dict[int, int] = {
            sid: r.result_weight for sid, r in shard_results.items()
        }
        # Distinct sensors each shard has delivered so far.  Top-up
        # requests are *incremental*: the shard is asked for its running
        # total plus the new share, so its freshly warmed slot caches
        # serve the repeat portion without probes and the sampler walks
        # past them to genuinely new sensors; the repeat is then stripped
        # from the top-up answer and only new sensors count as gain.
        delivered: dict[int, set[int]] = {
            sid: _result_sensor_ids(r) for sid, r in shard_results.items()
        }
        # Shards with nothing left to give: their own sampler walked the
        # entire in-region pool and said so.  Mild under-delivery alone
        # does *not* pre-drain a shard — a one-probe miss on a healthy
        # shard must not bar it from the residual pool; the top-up round
        # itself drains any shard whose incremental request gains less
        # than its share.
        drained: set[int] = {
            sid for sid, r in shard_results.items() if r.pool_exhausted
        }
        for _ in range(cfg.redistribution_rounds):
            shortfall = target_readings - sum(achieved.values())
            if shortfall < 1:
                break
            exclude = drained | set(scatter.failed) | set(outcome.failed)
            for route in routes:
                state = self._states.get(route.shard_id)
                if state is None or state.killed:
                    exclude.add(route.shard_id)
            assert self._directory is not None
            residual = self._directory.residual_routes(routes, achieved, exclude)
            if not residual:
                break
            caps = {r.shard_id: int(r.weight) for r in residual}
            shares = ShardDirectory.split_target_capped(shortfall, residual, caps)
            gained_this_round = 0
            round_shares: dict[int, int] = {}
            round_plan: list[tuple[int, SensorQuery]] = []
            for route in residual:
                sid = route.shard_id
                share = shares.get(sid, 0)
                if share == 0:
                    continue
                # The share is in readings; the sub-query's SAMPLESIZE is
                # per type tree, so round the covering request up.  The
                # request is the shard's running distinct total plus the
                # share — the already-delivered part is cache-served.
                seen = delivered.setdefault(sid, set())
                rpu = self._readings_per_unit(query, sid)
                units = -(-(len(seen) + share) // rpu)
                self.stats.topup_subqueries += 1
                round_shares[sid] = share
                round_plan.append((sid, replace(query, sample_size=units)))
            (round_,), _ = self._scatter_plans([round_plan], [residual])
            outcome.failed += round_.failed
            round_slots = [0.0]
            for sid in round_.failed:
                round_slots.append(round_.penalties.get(sid, 0.0))
            for sid, result in round_.shard_results.items():
                seen = delivered[sid]
                share = round_shares[sid]
                new_ids = _capped_new_ids(result, seen, share)
                _dedup_topup_result(result, new_ids)
                outcome.extra.append((sid, result))
                got = len(new_ids)
                seen |= new_ids
                achieved[sid] = achieved.get(sid, 0) + got
                gained_this_round += got
                if got < share or result.pool_exhausted:
                    drained.add(sid)
                round_slots.append(
                    result.collection_seconds + round_.penalties.get(sid, 0.0)
                )
            outcome.rounds_run += 1
            outcome.sensors_gained += gained_this_round
            outcome.collection_seconds += max(round_slots)
            if gained_this_round == 0:
                break
        outcome.shortfall = max(0, target_readings - sum(achieved.values()))
        outcome.pool_exhausted = tuple(sorted(drained))
        if outcome.rounds_run:
            self.stats.redistributions += 1
            self.stats.redistribution_rounds_run += outcome.rounds_run
            self.stats.topup_sensors_gained += outcome.sensors_gained
        self.stats.sampled_shortfall += outcome.shortfall
        return outcome

    def _scatter_queries(
        self, queries: Sequence[SensorQuery]
    ) -> tuple[list[_Scatter], _Scatter]:
        """Every query's first scatter round: route and plan each, then
        :meth:`_scatter_plans`.  The one path the synchronous, the
        streaming and the batch gather share, so for the same queries
        they issue byte-identical shard calls in the same order — the
        shard-side RNG streams, and therefore the answers, agree."""
        self._ensure_index()
        # Routing first surfaces an unknown type before any counting.
        routes_list = [self._route(query) for query in queries]
        self.stats.queries += len(queries)
        plans = [
            self._scatter_plan(query, routes)
            for query, routes in zip(queries, routes_list)
        ]
        self.stats.subqueries_scattered += sum(map(len, plans))
        return self._scatter_plans(plans, routes_list)

    def _scatter_plans(
        self,
        plans: Sequence[Sequence[tuple[int, SensorQuery]]],
        routes_list: Sequence[Sequence[ShardRoute]],
    ) -> tuple[list[_Scatter], _Scatter]:
        """Run one scatter round for several queries' plans: each shard
        receives every sub-query planned for it as one ``execute_batch``
        call (shard-local coalescing applies across them), and the
        answers are dealt back per query.

        Returns one :class:`_Scatter` per plan — its shards' answers,
        the failed shards it routed to and their retries —
        and the round itself, whose ``shard_results`` are the shards'
        ``BatchResult`` replies.  All of them share the round's
        ``penalties``."""
        # Per shard, its sub-queries and the query each one answers.
        subqueries: dict[int, list[SensorQuery]] = {}
        owners: dict[int, list[int]] = {}
        for qi, plan in enumerate(plans):
            for shard_id, subquery in plan:
                subqueries.setdefault(shard_id, []).append(subquery)
                owners.setdefault(shard_id, []).append(qi)
        tick = self._scatter_calls(
            [
                (shard_id, "execute_batch", (subqueries[shard_id],))
                for shard_id in sorted(subqueries)
            ]
        )
        scatters = [
            _Scatter(routes=routes, penalties=tick.penalties) for routes in routes_list
        ]
        if tick.failed or tick.retries:
            for scatter, plan in zip(scatters, plans):
                routed = {shard_id for shard_id, _ in plan}
                scatter.failed = [sid for sid in tick.failed if sid in routed]
                scatter.retries = {
                    sid: n for sid, n in tick.retries.items() if sid in routed
                }
        for shard_id, batch in tick.shard_results.items():
            for qi, result in zip(owners[shard_id], batch.results):
                scatters[qi].shard_results[shard_id] = result
        return scatters, tick

    def _finish(
        self,
        query: SensorQuery,
        scatter: _Scatter,
        topup_overlap_start: float | None = None,
    ) -> FederatedResult:
        """Everything after a query's first scatter round: the bounded
        cross-shard top-up rounds (a no-op unless the query is sampled
        and came up short), then the merge."""
        scatter.topup = self._redistribute(query, scatter)
        merged = self._gather(query, scatter, topup_overlap_start)
        if merged.partial:
            self.stats.partial_answers += 1
        return merged

    def execute(self, query: SensorQuery) -> FederatedResult:
        """Scatter one query, gather — then, for sampled queries that
        came up short, run the bounded cross-shard top-up rounds before
        merging.  The scatter is :meth:`execute_batch`'s, for a batch of
        one, without the tick's accounting."""
        query = normalize_region(query)
        return self._finish(query, self._scatter_queries((query,))[0][0])

    # Only because the e2e tracer's TRACE_POINTS names it (ROADMAP item 6(e)).
    execute_polygon = execute

    def execute_streaming(
        self, query: SensorQuery, deadline_seconds: float | None = None
    ) -> "StreamingGather":
        """Scatter one query and gather *incrementally*.

        Identical shard calls to :meth:`execute` (same scatter plan,
        same RNG consumption, same redistribution rounds), but the
        coordinator merges answers as they land in modeled time instead
        of waiting out the makespan:

        * ``first`` — the answer publishable at ``deadline_seconds``
          after the scatter: every shard landed by then, merged; healthy
          stragglers are listed in ``deferred_shards`` and the result is
          flagged partial.  ``None`` waits for everything (``first is
          final``).
        * ``final`` — the complete merge.  Redistribution top-ups
          launch as soon as every *answering* shard has landed, so they
          overlap a failing shard's retry tail instead of queueing
          behind it; on a healthy fleet the launch instant is the
          round-1 makespan and the arithmetic (and the whole result)
          reduces bit-identically to the synchronous gather.
        """
        self._ensure_index()
        self.stats.streaming_queries += 1
        query = normalize_region(query)
        scatter = self._scatter_queries((query,))[0][0]
        penalties = scatter.penalties
        arrivals = [
            ShardArrival(sid, r.collection_seconds + penalties.get(sid, 0.0), "ok")
            for sid, r in scatter.shard_results.items()
        ]
        arrivals += [
            ShardArrival(sid, penalties.get(sid, 0.0), "failed")
            for sid in scatter.failed
        ]
        arrivals.sort(key=lambda a: (a.landed_at, a.shard_id))
        # Top-up rounds need every answering shard's round-1 count, so
        # the earliest the coordinator can launch them is the last *ok*
        # landing — not the full makespan, which a failing shard holds
        # open for its whole backoff tail.
        topup_start = max(
            (a.landed_at for a in arrivals if a.status == "ok"), default=0.0
        )
        final = self._finish(query, scatter, topup_overlap_start=topup_start)
        first = final
        if deadline_seconds is not None and final.collection_seconds > float(
            deadline_seconds
        ):
            deadline = float(deadline_seconds)
            topup = scatter.topup
            deferred = tuple(
                a.shard_id
                for a in arrivals
                if a.status == "ok" and a.landed_at > deadline
            )
            pending_issues = tuple(
                a.shard_id
                for a in arrivals
                if a.status != "ok" and a.landed_at > deadline
            )
            # A top-up that completed by the deadline is merged (its
            # casualties are known by now too); an unfinished one is not.
            topup_done = topup.rounds_run and (
                topup_start + topup.collection_seconds <= deadline
            )
            # Failures only *known* by the deadline make the
            # published record; a shard still burning its retry backoff
            # is pending, exactly like a slow healthy one.
            first = self._gather(
                query,
                replace(
                    scatter,
                    shard_results={
                        sid: r
                        for sid, r in scatter.shard_results.items()
                        if sid not in deferred
                    },
                    failed=[
                        a.shard_id
                        for a in arrivals
                        if a.status == "failed" and a.landed_at <= deadline
                    ],
                    topup=topup if topup_done else None,
                ),
                topup_overlap_start=topup_start,
            )
            first.deferred_shards = deferred + pending_issues
            # The coordinator holds the publish until the deadline in
            # case a straggler makes it; it did not, so the partial
            # answer goes out exactly then.
            first.collection_seconds = deadline
            self.stats.deferred_shard_answers += len(first.deferred_shards)
        return StreamingGather(
            query=query,
            deadline_seconds=(
                None if deadline_seconds is None else float(deadline_seconds)
            ),
            arrivals=tuple(arrivals),
            first=first,
            final=final,
        )

    def _gather(
        self,
        query: SensorQuery,
        scatter: _Scatter,
        topup_overlap_start: float | None = None,
    ) -> FederatedResult:
        """Merge one query's shard answers (and its top-up rounds, when
        ``scatter.topup`` is set) in shard-id order."""
        shard_results, penalties = scatter.shard_results, scatter.penalties
        topup = scatter.topup
        failed = list(scatter.failed)
        if topup is not None:
            failed += [sid for sid in topup.failed if sid not in failed]
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
        topup_results: tuple[tuple[int, PortalResult], ...] = ()
        rounds_run = gained = shortfall = 0
        exhausted: tuple[int, ...] = ()
        if topup is not None:
            if topup_overlap_start is None:
                # Synchronous gather: round 2+ happens strictly after
                # the first gather, so its makespan charges are
                # additive, not overlapped.
                collection += topup.collection_seconds
            elif topup.rounds_run:
                # Streaming gather: top-ups launched the moment the last
                # *answering* shard landed, overlapping any failing
                # shard's retry tail still holding the round-1 slot open.
                # With no failure the launch instant is the makespan
                # itself and this reduces to the additive sum.
                collection = max(
                    collection, topup_overlap_start + topup.collection_seconds
                )
            topup_results = tuple(topup.extra)
            for _, result in topup.extra:
                answers.extend(result.answers)
                groups.append(result.groups)
                processing += result.processing_seconds
            rounds_run = topup.rounds_run
            gained = topup.sensors_gained
            shortfall = topup.shortfall
            exhausted = topup.pool_exhausted
        return FederatedResult(
            query=query,
            groups=concat_groups(groups),
            answers=answers,
            processing_seconds=processing,
            collection_seconds=collection,
            sample_requested=self._target_readings(
                query, self._federated_target(query)
            ),
            shard_results=shard_results,
            failed_shards=tuple(failed),
            shard_retries=sum(scatter.retries.values()),
            topup_results=topup_results,
            redistribution_rounds_run=rounds_run,
            topup_sensors_gained=gained,
            sampled_shortfall=shortfall,
            pool_exhausted_shards=exhausted,
        )

    def execute_batch(self, queries: Sequence[SensorQuery]) -> FederatedBatchResult:
        """One tick's queries, scattered per shard as *sub-batches*.

        Each shard receives every sub-query routed to it as one
        ``execute_batch`` call, so shard-local coalescing/dedup applies
        across the whole tick; the gather reassembles per-query merged
        results in submission order.  A shard that fails degrades every
        query that routed to it (those results come back partial)
        without failing the tick.
        """
        wall_start = time.perf_counter()
        self._ensure_index()
        self.stats.batch_ticks += 1
        if not queries:
            return FederatedBatchResult(stats=BatchStats())
        queries = list(map(normalize_region, queries))
        scatters, tick = self._scatter_queries(queries)
        shard_batches: dict[int, "BatchResult"] = tick.shard_results
        # Per-query cross-shard top-up (round 2+): each short sampled
        # query re-scatters its shortfall after the tick's first gather.
        # The re-scatters run concurrently across queries (each is its
        # own small scatter against already-warm shards), so the tick is
        # charged the *max* top-up collection, and shard dispatcher
        # tables dedup any sensor a first-round sub-batch already hit.
        results = [self._finish(q, scatter) for q, scatter in zip(queries, scatters)]
        topup_collection = max(s.topup.collection_seconds for s in scatters)

        stats = BatchStats(queries=len(queries))
        shard_seconds: dict[int, float] = {}
        slot_seconds: list[float] = [0.0]
        for shard_id, batch in shard_batches.items():
            s = batch.stats
            for name in _BATCH_COUNTERS:
                setattr(stats, name, getattr(stats, name) + getattr(s, name))
            slot = s.collection_seconds + tick.penalties.get(shard_id, 0.0)
            slot_seconds.append(slot)
            shard_seconds[shard_id] = (
                sum(r.processing_seconds for r in batch.results)
                + slot
                + s.maintenance_ops * self.cost_model.per_maintenance_op
            )
        for shard_id in tick.failed:
            slot = tick.penalties.get(shard_id, 0.0)
            slot_seconds.append(slot)
            shard_seconds[shard_id] = slot
        stats.collection_seconds = max(slot_seconds) + topup_collection
        # Coordinator-side wall clock: covers scatter, shard work (which
        # overlaps on the process backend) and gather — not the shard
        # sum, which would double-count overlapped work.
        stats.wall_seconds = time.perf_counter() - wall_start
        # Top-up work lands on the answering shard's own bill too.
        for merged in results:
            for sid, extra in merged.topup_results:
                shard_seconds[sid] = shard_seconds.get(sid, 0.0) + (
                    extra.processing_seconds + extra.collection_seconds
                )
        return FederatedBatchResult(
            results=results,
            stats=stats,
            shard_stats={sid: b.stats for sid, b in shard_batches.items()},
            shard_seconds=shard_seconds,
            # Every first-round casualty was routed by some query, so the
            # per-query records already cover it alongside the top-up ones.
            failed_shards=tuple(
                sorted({sid for r in results for sid in r.failed_shards})
            ),
            redistribution_rounds_run=sum(r.redistribution_rounds_run for r in results),
            topup_sensors_gained=sum(r.topup_sensors_gained for r in results),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, query: SensorQuery) -> dict[str, object]:
        """Federated EXPLAIN: the scatter plan plus each routed shard's
        own EXPLAIN (read-only; no retries, killed or unreachable shards
        are skipped and listed), and the redistribution plan — whether a
        shortfall on this query *would* trigger cross-shard top-up
        rounds, the round bound, and the per-shard pool estimates the
        residual split would draw on."""
        self._ensure_index()
        query = normalize_region(query)
        routes = self._route(query)
        plan = self._scatter_plan(query, routes)
        per_shard: dict[int, dict[str, object]] = {}
        skipped: list[int] = []
        for shard_id, subquery in plan:
            if self._states[shard_id].killed:
                skipped.append(shard_id)
                continue
            try:
                per_shard[shard_id] = self._backend.call(shard_id, "explain", subquery)
            except ShardDownError:
                skipped.append(shard_id)
        coverages = [float(e["cache_coverage"]) for e in per_shard.values()]
        cfg = self.federation
        target = self._federated_target(query)
        return {
            "shards": per_shard,
            "scatter": [
                {"shard": shard_id, "sample_size": sub.sample_size}
                for shard_id, sub in plan
            ],
            "skipped_shards": skipped,
            "expected_probes": sum(
                float(e["expected_probes"]) for e in per_shard.values()
            ),
            "cache_coverage": sum(coverages) / len(coverages) if coverages else 1.0,
            "redistribution": {
                "enabled": cfg.redistribution_rounds > 0,
                "rounds": cfg.redistribution_rounds,
                "target": target,
                "target_readings": self._target_readings(query, target),
                "eligible": (
                    target is not None
                    and cfg.redistribution_rounds > 0
                    and len(routes) > 1
                ),
                "pool_estimates": {
                    r.shard_id: int(
                        self.directory.entry(r.shard_id).weight
                        * min(1.0, max(r.overlap, 0.0))
                    )
                    for r in routes
                },
            },
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
