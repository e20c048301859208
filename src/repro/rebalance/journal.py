"""The migration journal: crash atomicity for the two-phase flip.

A durable migration mutates two or more shard data directories *and*
the (in-memory) shard directory.  A crash can land anywhere in between,
so every step writes one journal file under the federation's data
directory before touching disk:

``intent``
    Written before staging.  Both ``before`` and ``after`` membership
    maps are recorded.  A crash here (or anywhere during staging, while
    target directories are being wiped/rebuilt) **rolls back**: the
    ``before`` map is authoritative, and any shard directory whose
    stored sensor set disagrees is wiped — it rebuilds cold but
    consistent, with no orphaned or duplicated sensors.
``prepared``
    Advanced once every staged shard has been rebuilt and checkpointed
    under its new membership, immediately before the directory flip.
    From here the step **rolls forward**: the ``after`` map is
    authoritative.
``committed``
    After the flip the journal is deleted: with no journal pending the
    shard directories hold the ``after`` map, which a restart rebuilds
    from.  (Writing a ``committed`` record first would buy nothing —
    recovery would roll it forward exactly like ``prepared`` — and cost
    two fsyncs a step; a file that does say ``committed`` still rolls
    forward.)

:func:`resolve_pending` performs that resolution on reopen and returns
the authoritative ``sensor id -> shard id`` assignment, which callers
feed to :class:`~repro.federation.partitioner.FixedPartitioner` to
rebuild the federation with exactly the membership the crash decided.

The journal file itself is written atomically (tmp + fsync +
``os.replace`` + directory fsync), so recovery never sees a torn
journal, and a transition that returned survives an OS crash.  Each
transition is a fail point (``journal.<phase>``, before its write).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import failpoints

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.config import StorageConfig

__all__ = ["JOURNAL_NAME", "MigrationJournal", "MigrationResolution", "resolve_pending"]

JOURNAL_NAME = "rebalance-journal.json"

#: Phases whose crash resolution is roll-forward (the staged state won).
_FORWARD_PHASES = frozenset({"prepared", "committed"})


def _atomic_write(path: Path, payload: dict) -> None:
    from repro.storage.engine import fsync_dir

    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    with open(tmp, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


@dataclass
class MigrationJournal:
    """One step's write-ahead intent record.

    ``before``/``after`` map shard id -> sorted sensor ids (complete
    membership of every shard the step touches is *not* enough — the
    maps carry the full fleet so recovery can rebuild the whole
    federation from either side of the flip).
    """

    root: Path
    op: str = "move"
    phase: str = "intent"
    before: dict[int, list[int]] = field(default_factory=dict)
    after: dict[int, list[int]] = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return self.root / JOURNAL_NAME

    def write_intent(
        self,
        op: str,
        before: Mapping[int, Sequence[int]],
        after: Mapping[int, Sequence[int]],
    ) -> None:
        self.op = op
        self.phase = "intent"
        self.before = {int(k): sorted(int(i) for i in v) for k, v in before.items()}
        self.after = {int(k): sorted(int(i) for i in v) for k, v in after.items()}
        failpoints.hit("journal.intent")
        self._flush()

    def advance(self, phase: str) -> None:
        if phase != "prepared":
            raise ValueError(f"cannot advance to {phase!r}")
        failpoints.hit("journal.prepared")
        self.phase = phase
        self._flush()

    def clear(self) -> None:
        """Commit the step: delete the journal."""
        failpoints.hit("journal.committed")
        self.path.unlink(missing_ok=True)

    def _flush(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            self.path,
            {
                "op": self.op,
                "phase": self.phase,
                "before": {str(k): v for k, v in self.before.items()},
                "after": {str(k): v for k, v in self.after.items()},
            },
        )


@dataclass(frozen=True)
class MigrationResolution:
    """What recovery decided about an interrupted migration."""

    op: str
    phase: str
    action: str  # "rolled_back" | "rolled_forward"
    membership: dict[int, list[int]]
    wiped_shards: tuple[int, ...]

    @property
    def assignment(self) -> dict[int, int]:
        """``sensor id -> shard id`` for ``FixedPartitioner``."""
        return {
            sensor_id: shard_id
            for shard_id, ids in self.membership.items()
            for sensor_id in ids
        }

    @property
    def n_shards(self) -> int:
        return len(self.membership)


def resolve_pending(storage: "StorageConfig") -> MigrationResolution | None:
    """Resolve an interrupted migration on reopen, if one is pending.

    Reads the journal under ``storage.data_dir``; picks the winning
    membership map by phase (``intent`` rolls back, ``prepared``/
    ``committed`` roll forward); wipes every shard directory whose
    durable sensor set disagrees with the winner (it will rebuild cold
    but never orphaned/duplicated) plus any directory for a shard id
    the winner does not know; clears the journal.  Returns ``None``
    when no migration was in flight.
    """
    from repro.storage.engine import stored_sensor_ids, wipe_data_dir

    path = storage.path / JOURNAL_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError:
        # A torn journal is impossible via _atomic_write; a hand-damaged
        # one means the step never reached "prepared" — roll back by
        # discarding it (the before-state dirs were untouched at intent
        # write time).
        path.unlink(missing_ok=True)
        return None
    phase = str(payload.get("phase", "intent"))
    forward = phase in _FORWARD_PHASES
    winner_raw = payload["after"] if forward else payload["before"]
    membership = {int(k): [int(i) for i in v] for k, v in winner_raw.items()}
    wiped: list[int] = []
    for shard_id, ids in sorted(membership.items()):
        shard_cfg = storage.for_shard(shard_id)
        stored = stored_sensor_ids(shard_cfg)
        if stored and stored != set(ids):
            wipe_data_dir(shard_cfg.path)
            wiped.append(shard_id)
    # Shard ids beyond the winner's count (a dropped merge slot, a
    # half-staged split target) are stale regardless of content.
    shard_id = len(membership)
    while True:
        shard_cfg = storage.for_shard(shard_id)
        if not shard_cfg.path.exists():
            break
        wipe_data_dir(shard_cfg.path)
        wiped.append(shard_id)
        shard_id += 1
    path.unlink(missing_ok=True)
    return MigrationResolution(
        op=str(payload.get("op", "move")),
        phase=phase,
        action="rolled_forward" if forward else "rolled_back",
        membership=membership,
        wiped_shards=tuple(wiped),
    )
