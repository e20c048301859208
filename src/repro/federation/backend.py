"""Where a federation's shards live.

``FederatedPortal`` partitions, routes, retries and gathers; the one
thing it does not know is where a shard runs.  It hands every shard to a
*backend* as a :class:`ShardSpec` and from then on reaches it only by
shard id, through the handful of operations both backends answer:

``build_all(specs)``
    (Re)build the whole fleet; returns each shard's modeled recovery
    seconds (non-zero over a warm data directory).
``call(shard_id, op, *args)`` / ``attempt(calls)``
    One named ``SensorMapPortal`` operation on one shard / one attempt
    at a scatter round, returning the replies of the shards that
    answered keyed by shard id.
``kill(shard_id)`` / ``revive(spec)``
    A shard outage and its end; ``revive`` returns recovery seconds.
``stage(spec, primed)`` / ``commit(staged, drop)``
    The two phases of a membership change: ``stage`` returns an opaque
    token per restaged shard, ``commit`` installs the tokens, drops the
    trailing ``drop`` ids and returns recovery seconds per installed
    shard.
``close()``, ``pid(shard_id)``, ``portals()``
    Release everything; the shard's process id (``None`` in-process);
    the shard portals held in *this* process (none for workers).

:class:`InProcessBackend` (here) keeps every shard a ``SensorMapPortal``
in the coordinator's process;
:class:`repro.parallel.portal.ProcessBackend` keeps sockets and pids and
no portals — each worker builds its shard from the same ``ShardSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.portal.portal import SensorMapPortal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import COLRTreeConfig
    from repro.core.stats import ProcessingCostModel
    from repro.sensors.clock import SimClock
    from repro.sensors.sensor import Sensor
    from repro.storage.config import StorageConfig
    from repro.transport.config import TransportConfig

__all__ = ["InProcessBackend", "ShardDownError", "ShardSpec", "build_portal"]


class ShardDownError(RuntimeError):
    """A shard did not answer (killed, crashed, unreachable)."""


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard portal is constructed — or, over a warm data
    directory, *recovered* — from.  Building is deterministic: the same
    spec yields the identical trees and network RNG stream in the
    coordinator's process and in a worker's.  ``network_seed`` is the
    shard's own (federation seed + shard id); ``value_fn`` reaches a
    worker by fork inheritance, so any callable (or ``None``) works."""

    shard_id: int
    sensors: "list[Sensor]"
    config: "COLRTreeConfig"
    cost_model: "ProcessingCostModel"
    value_fn: object
    network_seed: int
    max_sensors_per_query: int | None
    transport: "TransportConfig | None"
    network_options: dict[str, object]
    storage: "StorageConfig | None"


def build_portal(
    spec: ShardSpec, clock: "SimClock", primed: Sequence[tuple] = ()
) -> SensorMapPortal:
    """Construct (or recover) the shard portal a spec describes, with the
    ``primed`` cache entries (``(reading, fetched_at)``, migrated from
    other shards) installed.

    A data directory that holds state is recovered from.  One that holds
    none is written once, after the build: the engine opens straight at
    the in-memory image, primed entries included, as ``checkpoint-1``
    (:meth:`SensorMapPortal.open_storage`) — no registration log, no
    checkpoint rotating one away."""
    from repro.storage.engine import holds_state

    recover = spec.storage is not None and holds_state(spec.storage)
    portal = SensorMapPortal(
        config=spec.config,
        cost_model=spec.cost_model,
        value_fn=spec.value_fn,
        network_seed=spec.network_seed,
        clock=clock,
        max_sensors_per_query=spec.max_sensors_per_query,
        transport=spec.transport,
        network_options=dict(spec.network_options),
        storage=spec.storage if recover else None,
    )
    portal.register_all(spec.sensors)
    portal.rebuild_index()
    if primed:
        portal.install_cache_entries(list(primed))
    if spec.storage is not None and not recover:
        portal.open_storage(spec.storage)
    return portal


class InProcessBackend:
    """Every shard a ``SensorMapPortal`` sharing the coordinator's
    clock.  Calls run sequentially — modeled concurrency is the gather
    makespan's arithmetic, not this loop's."""

    def __init__(self, clock: "SimClock") -> None:
        self.clock = clock
        self._portals: list[SensorMapPortal] = []

    def portals(self) -> list[SensorMapPortal]:
        return list(self._portals)

    def pid(self, shard_id: int) -> None:
        return None

    def build_all(self, specs: Sequence[ShardSpec]) -> list[float]:
        """Build the fleet; the portals it replaces are discarded, as
        :meth:`commit` and :meth:`revive` discard theirs."""
        replaced, self._portals = self._portals, [
            build_portal(spec, self.clock) for spec in specs
        ]
        for portal in replaced:
            portal.discard()
        return [portal.recovery_seconds for portal in self._portals]

    def call(self, shard_id: int, op: str, *args: object) -> object:
        return getattr(self._portals[shard_id], op)(*args)

    def attempt(self, calls: Sequence[tuple[int, str, tuple]]) -> dict[int, object]:
        answered: dict[int, object] = {}
        for shard_id, op, args in calls:
            try:
                answered[shard_id] = self.call(shard_id, op, *args)
            except ShardDownError:
                pass
        return answered

    def kill(self, shard_id: int) -> None:
        """With storage attached the outage is a real crash: the WAL
        handle is abandoned mid-flight (no final fsync, no checkpoint),
        so revival must replay the log.  An in-memory shard just stops
        being asked."""
        self._portals[shard_id].crash()

    def revive(self, spec: ShardSpec) -> float:
        """An in-memory shard revives instantly with its caches intact;
        a durable one is rebuilt from its data directory."""
        if spec.storage is None:
            return 0.0
        portal = build_portal(spec, self.clock)
        self._portals[spec.shard_id].discard()
        self._portals[spec.shard_id] = portal
        return portal.recovery_seconds

    def stage(self, spec: ShardSpec, primed: Sequence[tuple] = ()) -> SensorMapPortal:
        """Build (but do not install) a shard for its new membership,
        primed with migrated cache entries.

        In-memory shards stage fully off to the side: the old portal
        keeps serving until :meth:`commit`.  Durable shards must release
        the old engine first (one WAL writer per directory) and wipe the
        stale on-disk sensor set; the new shard is then written once, as
        a checkpoint of the primed state, so a crash after commit
        recovers the *new* membership warm."""
        if spec.storage is not None:
            from repro.storage.engine import wipe_data_dir

            if spec.shard_id < len(self._portals):
                # Abandon the old WAL, as crash() does: a final fsync
                # would sync a file the wipe deletes next.
                self._portals[spec.shard_id].crash()
            wipe_data_dir(spec.storage.path)
        return build_portal(spec, self.clock, primed)

    def commit(
        self, staged: Mapping[int, SensorMapPortal], drop: Sequence[int] = ()
    ) -> dict[int, float]:
        # A replaced portal is discarded, not just closed: reference
        # counting then frees its trees at once.
        for shard_id in sorted(drop, reverse=True):
            self._portals.pop(shard_id).discard()
        for shard_id in sorted(staged):
            if shard_id < len(self._portals):
                self._portals[shard_id].discard()
                self._portals[shard_id] = staged[shard_id]
            else:
                self._portals.append(staged[shard_id])
        return {sid: portal.recovery_seconds for sid, portal in staged.items()}

    def close(self) -> None:
        """Flush and close each shard's storage engine (a no-op for
        in-memory shards, which stay queryable)."""
        for portal in self._portals:
            portal.close()
