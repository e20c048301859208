"""The storage engine: manifest, checkpoint rotation, WAL, recovery.

One engine owns one data directory::

    MANIFEST.json        which (checkpoint, wal) pair is current
    checkpoint-<N>.db    immutable page file written at checkpoint N
    wal-<N>.log          redo log of everything since checkpoint N

Every file holds :mod:`codec <repro.storage.codec>` layouts; nothing
is pickled.

Write path: every acknowledged slot-cache batch (and every sensor
registration) appends one WAL record; a registration batch
(``register_all``) appends its records in one write and one group
commit.  ``checkpoint()`` writes a fresh checkpoint file and a fresh
empty WAL, makes both durable, then atomically flips the manifest (tmp
+ fsync + rename + directory fsync) and deletes the superseded pair — a
crash at any instant leaves a consistent (checkpoint, wal) pair
reachable.  :meth:`StorageEngine.create` opens a directory that holds
no state straight at an in-memory image: ``checkpoint-1`` of that
image, an empty ``wal-1`` and the manifest — a shard (re)build writes
its sensors once, not as a registration log that a checkpoint then
rotates away.

Recovery on open: read the manifested checkpoint (if any), group its
cached readings into priming batches, then replay the WAL — torn tails
are CRC-detected and truncated, intact records append registration and
batch entries in their original order.  The portal re-installs the
result through the deterministic rebuild + grouped-delta ingestion, so
the first tick after restart is probe-free for every fresh slot.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import failpoints
from repro.sensors.sensor import Reading, Sensor
from repro.storage import codec
from repro.storage import wal as wal_mod
from repro.storage.checkpoint import group_by_fetch, read_checkpoint, write_checkpoint
from repro.storage.config import StorageConfig
from repro.storage.stats import StorageStats
from repro.storage.wal import WriteAheadLog

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = 1
# Recovery cost model: modeled seconds per checkpoint page read and per
# WAL record re-applied on open (deterministic, host-independent).
PER_PAGE_READ_SECONDS = 100e-6
PER_WAL_RECORD_SECONDS = 20e-6


@dataclass
class RecoveredState:
    """What recovery found in a data directory.

    ``batches`` is the priming sequence: the checkpoint's cached
    readings grouped by ``fetched_at`` (ascending), followed by every
    WAL batch in original append order.  Re-ingesting them in order
    through ``insert_readings_batch`` reproduces the durable cache
    state.
    """

    sensors: list[Sensor] = field(default_factory=list)
    batches: list[tuple[float, list[Reading]]] = field(default_factory=list)
    clock_now: float = 0.0
    checkpoint_pages: int = 0
    wal_records: int = 0
    torn_tail_truncated: bool = False

    @property
    def reading_count(self) -> int:
        return sum(len(batch) for _, batch in self.batches)

    @property
    def has_state(self) -> bool:
        return bool(self.sensors)


class StorageEngine:
    """Durable state of one portal (or one federation shard)."""

    def __init__(self, config: StorageConfig) -> None:
        """Open a data directory, recovering whatever state it holds."""
        self._open_dir(config)
        if not holds_state(config):
            # Files a wipe or a create cut short left behind: never
            # replayed, since no manifest names them.
            wipe_data_dir(self.dir)
        manifest = self._read_manifest()
        if manifest is None:
            self.epoch = 1
            self.checkpoint_name: str | None = None
            self._write_manifest()
        else:
            self.epoch = int(manifest["epoch"])
            self.checkpoint_name = manifest.get("checkpoint")
        self.recovered = self._recover()
        self._sweep_stale_files()
        self._wal = self._open_wal(self.epoch)

    @classmethod
    def create(
        cls,
        config: StorageConfig,
        sensors: list[Sensor],
        cached: list[tuple[Reading, float]],
        clock_now: float,
    ) -> "StorageEngine":
        """Open a directory that holds no state straight at an in-memory
        image: ``checkpoint-1`` of ``sensors`` and ``cached`` (fsync),
        an empty ``wal-1`` (fsync), a directory fsync, then the manifest
        naming both (tmp + fsync + rename + directory fsync).  Files a
        crashed earlier attempt left — no manifest names them — are
        deleted first.  Nothing is recovered: the image is already in
        memory."""
        engine = cls.__new__(cls)
        engine._open_dir(config)
        if engine._manifest_path().exists():
            raise FileExistsError(f"{engine.dir} already holds a manifest")
        wipe_data_dir(engine.dir)
        engine.epoch = 1
        engine.checkpoint_name = engine._checkpoint_path(1).name
        engine.recovered = RecoveredState()
        engine._write_checkpoint(1, sensors, cached, clock_now)
        engine._wal = engine._open_wal(1)
        engine._fsync_dir()
        engine._write_manifest()
        return engine

    def _open_dir(self, config: StorageConfig) -> None:
        self.config = config
        self.stats = StorageStats()
        self.dir = config.path
        self.dir.mkdir(parents=True, exist_ok=True)
        self._closed = False

    def _open_wal(self, epoch: int) -> WriteAheadLog:
        return WriteAheadLog(
            self._wal_path(epoch),
            stats=self.stats,
            fsync_enabled=self.config.fsync_enabled,
        )

    def _write_checkpoint(
        self,
        epoch: int,
        sensors: list[Sensor],
        cached: list[tuple[Reading, float]],
        clock_now: float,
    ) -> None:
        write_checkpoint(
            self._checkpoint_path(epoch),
            meta={"epoch": epoch, "clock_now": float(clock_now)},
            sensors=sensors,
            cached=cached,
            stats=self.stats,
            fsync=self.config.fsync_enabled,
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.dir / MANIFEST_NAME

    def _wal_path(self, epoch: int) -> Path:
        return self.dir / f"wal-{epoch}.log"

    def _checkpoint_path(self, epoch: int) -> Path:
        return self.dir / f"checkpoint-{epoch}.db"

    def _read_manifest(self) -> dict | None:
        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except ValueError:
            return None
        if manifest.get("format") != MANIFEST_FORMAT:
            return None
        return manifest

    def _write_manifest(self) -> None:
        manifest = {
            "format": MANIFEST_FORMAT,
            "epoch": self.epoch,
            "checkpoint": self.checkpoint_name,
        }
        tmp = self._manifest_path().with_suffix(".tmp")
        failpoints.hit("manifest.write")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
            f.flush()
            if self.config.fsync_enabled:
                os.fsync(f.fileno())
        failpoints.hit("manifest.rename")
        os.replace(tmp, self._manifest_path())
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        fsync_dir(self.dir, self.config.fsync_enabled)

    def _sweep_stale_files(self) -> None:
        """Delete checkpoint/WAL files a crashed checkpoint left behind
        (only the manifested pair is live)."""
        keep = {self._wal_path(self.epoch).name}
        if self.checkpoint_name:
            keep.add(self.checkpoint_name)
        for pattern in ("checkpoint-*.db", "wal-*.log"):
            for path in self.dir.glob(pattern):
                if path.name not in keep:
                    path.unlink()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> RecoveredState:
        state = RecoveredState()
        truncations_before = self.stats.torn_tail_truncations
        if self.checkpoint_name:
            reads_before = self.stats.page_reads
            meta, sensors, cached = read_checkpoint(
                self.dir / self.checkpoint_name, stats=self.stats
            )
            state.sensors = sensors
            state.batches = group_by_fetch(cached)
            state.clock_now = float(meta.get("clock_now", 0.0))
            state.checkpoint_pages = self.stats.page_reads - reads_before
        records = _replay_frames(self._wal_path(self.epoch), self.stats)
        sensors_by_id = {s.sensor_id: s for s in state.sensors}
        for record in records:
            if record[0] == "sensors":
                sensors_by_id.update((s.sensor_id, s) for s in record[1])
            else:
                _, fetched_at, batch = record
                state.batches.append((fetched_at, batch))
                state.clock_now = max(state.clock_now, fetched_at)
        state.sensors = [sensors_by_id[sid] for sid in sorted(sensors_by_id)]
        state.wal_records = len(records)
        state.torn_tail_truncated = (
            self.stats.torn_tail_truncations > truncations_before
        )
        if state.has_state or state.wal_records:
            self.stats.recoveries += 1
        return state

    @property
    def recovery_cost_seconds(self) -> float:
        """Modeled seconds the open-time recovery took: checkpoint pages
        read plus WAL records re-applied, at :data:`PER_PAGE_READ_SECONDS`
        and :data:`PER_WAL_RECORD_SECONDS`."""
        rec = self.recovered
        return (
            rec.checkpoint_pages * PER_PAGE_READ_SECONDS
            + rec.wal_records * PER_WAL_RECORD_SECONDS
        )

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def journal_register(self, sensor: Sensor) -> None:
        self._wal.append(codec.encode_sensors_frame([sensor]))

    def journal_register_all(self, sensors: Iterable[Sensor]) -> None:
        """Journal a registration batch: one record per sensor, as
        :meth:`journal_register` writes it, in one group commit."""
        self._wal.append_many(codec.encode_sensors_frame([s]) for s in sensors)

    def journal_batch(self, readings: list[Reading], fetched_at: float) -> None:
        if not readings:
            return
        self._wal.append(codec.encode_batch(readings, float(fetched_at)))

    def sync(self) -> None:
        self._wal.sync()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(
        self,
        sensors: list[Sensor],
        cached: list[tuple[Reading, float]],
        clock_now: float,
    ) -> None:
        """Write a fresh checkpoint, rotate the WAL, flip the manifest."""
        new_epoch = self.epoch + 1
        checkpoint_name = self._checkpoint_path(new_epoch).name
        self._write_checkpoint(new_epoch, sensors, cached, clock_now)
        new_wal = self._open_wal(new_epoch)
        self._fsync_dir()
        old_epoch = self.epoch
        old_checkpoint = self.checkpoint_name
        self.epoch = new_epoch
        self.checkpoint_name = checkpoint_name
        self._write_manifest()
        self._wal.close()
        self._wal = new_wal
        self._wal_path(old_epoch).unlink(missing_ok=True)
        if old_checkpoint:
            (self.dir / old_checkpoint).unlink(missing_ok=True)
        self.stats.checkpoints += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._wal.close()
        self._closed = True

    def crash(self) -> None:
        """Simulate a process kill: drop the WAL handle with no final
        fsync, leave everything else exactly as it lies on disk."""
        if self._closed:
            return
        self._wal.crash()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


# ----------------------------------------------------------------------
# Directory-level helpers (used without opening an engine for append)
# ----------------------------------------------------------------------


def fsync_dir(path: str | Path, enabled: bool = True) -> None:
    """Make a directory's entries (a rename, a new file) durable."""
    failpoints.hit("dir.fsync")
    if not enabled:
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replay_frames(
    path: Path, stats: StorageStats, truncate_torn_tail: bool = True
) -> list[tuple]:
    """The WAL's intact records, decoded; a frame that passes its CRC but
    does not decode is a format error, not a torn tail."""
    payloads = wal_mod.replay(path, stats=stats, truncate_torn_tail=truncate_torn_tail)
    try:
        return [codec.decode_frame(payload) for payload in payloads]
    except codec.FormatError as exc:
        raise codec.format_error(path, str(exc)) from None


def describe_data_dir(data_dir: str | Path) -> dict:
    """Read-only inspection of a data directory (the CLI's view).

    Replays the WAL without truncating, so describing a live or foreign
    directory never mutates it.
    """
    data_dir = Path(data_dir)
    manifest_path = data_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return {"exists": False, "data_dir": str(data_dir)}
    manifest = json.loads(manifest_path.read_text())
    epoch = int(manifest["epoch"])
    checkpoint_name = manifest.get("checkpoint")
    stats = StorageStats()
    out: dict = {
        "exists": True,
        "data_dir": str(data_dir),
        "epoch": epoch,
        "checkpoint": None,
        "wal": None,
    }
    if checkpoint_name and (data_dir / checkpoint_name).exists():
        path = data_dir / checkpoint_name
        meta, sensors, cached = read_checkpoint(path, stats=stats)
        out["checkpoint"] = {
            "file": checkpoint_name,
            "bytes": path.stat().st_size,
            "pages": path.stat().st_size // max(1, _page_size_of(path)),
            "sensors": len(sensors),
            "cached_readings": len(cached),
            "clock_now": float(meta.get("clock_now", 0.0)),
        }
    wal_path = data_dir / f"wal-{epoch}.log"
    if wal_path.exists():
        records = _replay_frames(wal_path, stats, truncate_torn_tail=False)
        registrations = sum(len(r[1]) for r in records if r[0] == "sensors")
        batches = [r for r in records if r[0] == "batch"]
        out["wal"] = {
            "file": wal_path.name,
            "bytes": wal_path.stat().st_size,
            "records": len(records),
            "registrations": registrations,
            "batches": len(batches),
            "batched_readings": sum(len(r[2]) for r in batches),
            "torn_tail": stats.torn_tail_truncations > 0,
        }
    out["page_reads"] = stats.page_reads
    return out


def _page_size_of(path: Path) -> int:
    import struct

    with open(path, "rb") as f:
        head = f.read(16)
    if len(head) < 16:
        return 4096
    return struct.unpack_from("<I", head, 12)[0] or 4096


def holds_state(config: StorageConfig) -> bool:
    """Whether a data directory was opened before (it has a manifest).
    One that was not recovers nothing and may be created at an image
    (:meth:`StorageEngine.create`)."""
    return (config.path / MANIFEST_NAME).exists()


def stored_sensor_ids(config: StorageConfig) -> set[int]:
    """The sensor ids a data directory holds durably (empty when the
    directory has no state).  Read-only — used by the federation to
    detect that a re-partition invalidated a shard directory."""
    data_dir = config.path
    manifest_path = data_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return set()
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError:
        return set()
    ids: set[int] = set()
    checkpoint_name = manifest.get("checkpoint")
    if checkpoint_name and (data_dir / checkpoint_name).exists():
        _, sensors, _ = read_checkpoint(data_dir / checkpoint_name)
        ids.update(s.sensor_id for s in sensors)
    wal_path = data_dir / f"wal-{int(manifest['epoch'])}.log"
    for record in _replay_frames(wal_path, StorageStats(), truncate_torn_tail=False):
        if record[0] == "sensors":
            ids.update(s.sensor_id for s in record[1])
    return ids


def wipe_data_dir(data_dir: str | Path) -> None:
    """Delete every engine-owned file in a data directory (manifest,
    checkpoints, WALs), leaving the directory.  The manifest goes first:
    a wipe cut short leaves a directory without one, which holds no
    state whatever files remain."""
    data_dir = Path(data_dir)
    if not data_dir.exists():
        return
    (data_dir / MANIFEST_NAME).unlink(missing_ok=True)
    for pattern in ("checkpoint-*.db", "wal-*.log"):
        for path in data_dir.glob(pattern):
            failpoints.hit("dir.wipe")
            path.unlink()
