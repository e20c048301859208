"""One migration step: capture → stage → two-phase flip.

``ShardMover`` executes a single membership change end-to-end against a
:class:`~repro.federation.federated.FederatedPortal` (either backend).
All five operations — ``move``, ``split``, ``merge``, ``absorb_joins``,
``absorb_leaves`` — reduce to one engine, :meth:`ShardMover._retarget`:

1. **Capture.**  Export the warm slot-cache entries of every shard
   whose membership changes (over the op pipe on the process backend).
   A killed shard aborts the step *before anything is mutated*
   (:class:`MigrationAborted`).
2. **Journal intent** (durable federations): the full before/after
   membership maps hit ``rebalance-journal.json`` before any data
   directory is touched, so a crash rolls back cleanly
   (:func:`repro.rebalance.journal.resolve_pending`).
3. **Stage.**  Replacement shard portals are built off to the side and
   primed with the captured entries under their *original* fetch
   stamps — moved sensors arrive warm, not cold.  The old portals and
   the old directory keep serving queries throughout.
4. **Flip.**  The journal advances to ``prepared``; then the commit
   installs the staged portals and refreshes the directory with one
   atomic row-list swap.  A query racing the step sees either the old
   owner or the new one — never both, never neither — and scatter
   target splitting stays conservation-exact because every directory
   it can observe sums its weights to the full fleet.

Shard ids stay dense: ``split`` appends the next id, ``merge`` and
emptied-by-leave shards are compacted by *swap-remove* (the last shard
renumbers into the vacated slot), so only the touched shards rebuild.

Three :mod:`fail points <repro.failpoints>` mark the phases
(``mover.captured``, ``mover.intent``, ``mover.prepared``); an armed
hook may raise there to simulate a coordinator crash between the
phases, or SIGKILL a worker out-of-band.  A hook that raises leaves the
*in-memory* coordinator un-flipped (old membership — consistent); a
durable federation is recovered from the journal instead of reusing
the object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro import failpoints
from repro.federation.federated import ShardDownError
from repro.geometry import GeoPoint
from repro.rebalance.journal import MigrationJournal
from repro.sensors.sensor import Sensor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.federated import FederatedPortal

__all__ = ["JoinSpec", "MigrationAborted", "ShardMover"]


class MigrationAborted(RuntimeError):
    """The step could not start (e.g. an affected shard is down);
    nothing was mutated."""


@dataclass(frozen=True)
class JoinSpec:
    """A sensor joining the fleet mid-flight (churn workload unit)."""

    location: GeoPoint
    expiry_seconds: float
    sensor_type: str = "generic"
    availability: float = 1.0


def _canon(group: Iterable[Sensor]) -> list[Sensor]:
    """Canonical shard group order: ascending sensor id (the same order
    a partitioner-driven rebuild would produce)."""
    return sorted(group, key=lambda s: s.sensor_id)


class ShardMover:
    """Executes one bounded membership change against a federation."""

    def __init__(
        self,
        fed: "FederatedPortal",
        on_phase: Callable[[str], None] | None = None,
    ) -> None:
        self.fed = fed
        self.on_phase = on_phase

    # ------------------------------------------------------------------
    # Operations (all reduce to _retarget)
    # ------------------------------------------------------------------
    def move(
        self, sensor_ids: Sequence[int], src: int, dst: int
    ) -> list[Sensor]:
        """Move a sensor batch from ``src`` to ``dst``.  Returns the
        moved sensors."""
        fed = self.fed
        n = fed.n_shards
        if src == dst:
            raise ValueError("src and dst shards must differ")
        if not 0 <= src < n or not 0 <= dst < n:
            raise ValueError(f"shard out of range (have {n})")
        moving = set(sensor_ids)
        if not moving:
            return []
        groups = [fed.shard_members(i) for i in range(n)]
        src_ids = {s.sensor_id for s in groups[src]}
        if not moving <= src_ids:
            raise ValueError("some sensors are not owned by the source shard")
        if moving == src_ids:
            raise ValueError("move would empty the source shard; use merge()")
        movers = [s for s in groups[src] if s.sensor_id in moving]
        groups[src] = [s for s in groups[src] if s.sensor_id not in moving]
        groups[dst] = groups[dst] + movers
        return self._retarget("move", groups)

    def split(self, shard_id: int) -> int:
        """Split one shard at the population median along its wider MBR
        axis (SampleTree's population-bounded discipline, one level up).
        The new half keeps spatial coherence so MBR routing stays
        selective.  Returns the new shard's id."""
        fed = self.fed
        n = fed.n_shards
        group = fed.shard_members(shard_id)
        if len(group) < 2:
            raise ValueError("cannot split a shard with fewer than 2 sensors")
        mbr = fed.directory.entry(shard_id).mbr
        if (mbr.max_x - mbr.min_x) >= (mbr.max_y - mbr.min_y):
            key = lambda s: (s.location.x, s.location.y, s.sensor_id)  # noqa: E731
        else:
            key = lambda s: (s.location.y, s.location.x, s.sensor_id)  # noqa: E731
        ordered = sorted(group, key=key)
        half = len(ordered) // 2
        groups = [fed.shard_members(i) for i in range(n)]
        groups[shard_id] = ordered[:half]
        groups.append(ordered[half:])
        self._retarget("split", groups)
        return n

    def merge(self, a: int, b: int) -> int:
        """Merge two shards; the combined population lives at
        ``min(a, b)``.  The last shard renumbers into the vacated slot
        (swap-remove) so ids stay dense.  Returns the surviving id."""
        fed = self.fed
        n = fed.n_shards
        if a == b:
            raise ValueError("cannot merge a shard with itself")
        if not 0 <= a < n or not 0 <= b < n:
            raise ValueError(f"shard out of range (have {n})")
        if n < 2:
            raise ValueError("nothing to merge")
        keep, other = min(a, b), max(a, b)
        groups = [fed.shard_members(i) for i in range(n)]
        groups[keep] = groups[keep] + groups[other]
        last = groups.pop()
        if other < len(groups):
            groups[other] = last
        self._retarget("merge", groups)
        return keep

    def absorb_joins(self, specs: Sequence[JoinSpec]) -> list[Sensor]:
        """Register joining sensors and migrate them into the spatially
        best shard — the one whose MBR contains them (ties to the
        lightest), else the nearest MBR.  No full rebuild: only the
        receiving shards restage."""
        fed = self.fed
        if not specs:
            return []
        n = fed.n_shards  # forces the index before registry mutation
        joined = [
            fed.registry.register(
                spec.location,
                spec.expiry_seconds,
                sensor_type=spec.sensor_type,
                availability=spec.availability,
            )
            for spec in specs
        ]
        groups = [fed.shard_members(i) for i in range(n)]
        for sensor in joined:
            groups[self._place(sensor.location)].append(sensor)
        try:
            self._retarget("join", groups)
        except MigrationAborted:
            # Nothing moved: the joins leave the registry as well, or
            # it would hold sensors no shard owns.
            for sensor in joined:
                fed.registry.unregister(sensor.sensor_id)
            raise
        return joined

    def absorb_leaves(self, sensor_ids: Sequence[int]) -> list[int]:
        """Withdraw sensors from the fleet.  A shard emptied by leaves
        is compacted away by swap-remove.  Returns the ids removed."""
        fed = self.fed
        leaving = set(sensor_ids)
        if not leaving:
            return []
        n = fed.n_shards
        groups = [fed.shard_members(i) for i in range(n)]
        owned = {s.sensor_id for g in groups for s in g}
        if not leaving <= owned:
            raise ValueError("some leaving sensors are not in the fleet")
        if leaving == owned:
            raise ValueError("leaves would empty the whole fleet")
        departed = [s for g in groups for s in g if s.sensor_id in leaving]
        groups = [[s for s in g if s.sensor_id not in leaving] for g in groups]
        # Swap-remove emptied slots so shard ids stay dense.
        i = 0
        while i < len(groups):
            if groups[i]:
                i += 1
                continue
            last = groups.pop()
            if i < len(groups):
                groups[i] = last
        self._retarget("leave", groups, departed)
        # Only a committed step withdraws: an aborted one leaves every
        # sensor registered and owned.
        for sensor_id in sorted(leaving):
            fed.registry.unregister(sensor_id)
        return sorted(leaving)

    # ------------------------------------------------------------------
    # The engine
    # ------------------------------------------------------------------
    def _retarget(
        self,
        op: str,
        final_groups: list[list[Sensor]],
        departed: Sequence[Sensor] = (),
    ) -> list[Sensor]:
        """Drive the fleet from its current membership to
        ``final_groups`` in one two-phase step.  Returns the sensors
        whose owner changed.  ``departed`` are the sensors withdrawn by
        this step: in no final group, but subscribers (the front door's
        result cache) must hear about them all the same."""
        fed = self.fed
        current_n = fed.n_shards
        current = [fed.shard_members(i) for i in range(current_n)]
        current_ids = [{s.sensor_id for s in g} for g in current]
        owner_of = {
            s.sensor_id: sid for sid, g in enumerate(current) for s in g
        }
        final_groups = [_canon(g) for g in final_groups]
        if not final_groups or any(not g for g in final_groups):
            raise ValueError("a rebalance step may not leave an empty shard")
        changes = {
            sid: g
            for sid, g in enumerate(final_groups)
            if sid >= current_n or {s.sensor_id for s in g} != current_ids[sid]
        }
        drop = list(range(len(final_groups), current_n))
        if not changes and not drop:
            return []
        # Capture phase: warm cache entries of every sensor landing in
        # a restaged shard, exported from its *current* owner.  Killed
        # owners or targets abort before any mutation.
        for sid in changes:
            if sid < current_n and fed.shard_killed(sid):
                raise MigrationAborted(f"target shard {sid} is down")
        owners_needed: dict[int, set[int]] = {}
        for sid, g in changes.items():
            for s in g:
                owner = owner_of.get(s.sensor_id)
                if owner is not None:
                    owners_needed.setdefault(owner, set()).add(s.sensor_id)
        captured: dict[int, list] = {}
        for owner in sorted(owners_needed):
            try:
                captured[owner] = fed.rebalance_capture(
                    owner, sorted(owners_needed[owner])
                )
            except ShardDownError as exc:
                raise MigrationAborted(
                    f"source shard {owner} is down"
                ) from exc
        failpoints.hit("mover.captured")
        target_ids = {sid: {s.sensor_id for s in g} for sid, g in changes.items()}
        primed = {
            sid: [
                entry
                for owner in sorted(captured)
                for entry in captured[owner]
                if entry[0].sensor_id in ids
            ]
            for sid, ids in target_ids.items()
        }
        journal = self._journal()
        if journal is not None:
            journal.write_intent(
                op,
                before={sid: [s.sensor_id for s in g] for sid, g in enumerate(current)},
                after={
                    sid: [s.sensor_id for s in g]
                    for sid, g in enumerate(final_groups)
                },
            )
        failpoints.hit("mover.intent")

        def on_staged() -> None:
            if journal is not None:
                journal.advance("prepared")
            failpoints.hit("mover.prepared")
            self._emit("prepared")

        fed.rebalance_apply(changes, primed=primed, drop=drop, on_staged=on_staged)
        if journal is not None:
            journal.clear()
        moved = [
            s
            for sid, g in enumerate(final_groups)
            for s in g
            if owner_of.get(s.sensor_id) != sid
        ]
        fed.notify_rebalance([*moved, *departed])
        self._emit("committed")
        return moved

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _place(self, location: GeoPoint) -> int:
        """The best shard for a fresh join: containing MBR with the
        smallest population, else the nearest MBR edge."""
        entries = self.fed.directory.entries()
        containing = [e for e in entries if e.mbr.contains_point(location)]
        if containing:
            return min(containing, key=lambda e: (e.weight, e.shard_id)).shard_id

        def gap(e) -> float:
            dx = max(e.mbr.min_x - location.x, 0.0, location.x - e.mbr.max_x)
            dy = max(e.mbr.min_y - location.y, 0.0, location.y - e.mbr.max_y)
            return dx * dx + dy * dy

        return min(entries, key=lambda e: (gap(e), e.shard_id)).shard_id

    def _journal(self) -> MigrationJournal | None:
        if self.fed.storage_config is None:
            return None
        return MigrationJournal(self.fed.storage_config.path)

    def _emit(self, phase: str) -> None:
        if self.on_phase is not None:
            self.on_phase(phase)
