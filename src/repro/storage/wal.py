"""The redo-only write-ahead log.

Every acknowledged slot-cache ingestion appends one record; recovery
replays the records (in order) on top of the last checkpoint.  A record
is an opaque byte payload (:mod:`repro.storage.codec` says what the
engine puts in one), framed as ``u32 len | u32 crc32 | payload`` after
an 8-byte magic header, so a torn tail — a crash mid-append — is
detected by length or CRC and truncated instead of replayed.  A file
whose header is another format's magic is never truncated: replay
raises :class:`~repro.storage.codec.FormatError` naming the converter.

Durability contract
-------------------
``append`` always flushes Python's buffer to the OS, so a *process*
kill (SIGKILL, the failure the kill/revive benchmarks simulate) loses
nothing that was acknowledged.  ``fsync`` runs once per
``fsync_batch`` (default :data:`FSYNC_BATCH`) appends (group commit): an *OS* crash can lose at most
the last unsynced batch, which recovery's prefix property absorbs.
``append_many`` holds a batch to the same contract as a unit: every
frame is flushed to the OS on return, and the whole batch is fsynced
as soon as ``fsync_batch`` records are pending — so a batch at least
that long returns fully synced.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

from repro import failpoints
from repro.storage.codec import format_error
from repro.storage.stats import StorageStats

MAGIC = b"COLRWAL2"
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
# Group-commit width: one ``fsync`` per this many appends.
FSYNC_BATCH = 32


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """An append-only journal of redo records."""

    def __init__(
        self,
        path: str | Path,
        stats: StorageStats | None = None,
        fsync_batch: int = FSYNC_BATCH,
        fsync_enabled: bool = True,
    ) -> None:
        self.path = Path(path)
        self.stats = stats if stats is not None else StorageStats()
        self.fsync_batch = max(1, int(fsync_batch))
        self.fsync_enabled = fsync_enabled
        self._pending = 0
        self._closed = False
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._file = open(self.path, "ab")
        if fresh:
            failpoints.hit("wal.write")
            self._file.write(MAGIC)
            self._file.flush()
            self._fsync()

    def _fsync(self) -> None:
        failpoints.hit("wal.fsync")
        if self.fsync_enabled:
            os.fsync(self._file.fileno())
            self.stats.wal_fsyncs += 1
        self._pending = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, payload: bytes) -> None:
        """Journal one record: frame, flush to the OS, group-commit."""
        failpoints.hit("wal.write")
        self._file.write(_frame(payload))
        self._commit(1)

    def append_many(self, payloads: Iterable[bytes]) -> None:
        """Journal a batch: one frame per record — the bytes of one
        :meth:`append` each — handed to the OS as one write + flush,
        then one group-commit decision for the whole batch.  An empty
        batch touches nothing."""
        frames = bytearray()
        count = 0
        for payload in payloads:
            frames += _frame(payload)
            count += 1
        if count:
            failpoints.hit("wal.write")
            self._file.write(frames)
            self._commit(count)

    def _commit(self, count: int) -> None:
        """Flush ``count`` just-written records to the OS and apply the
        group-commit rule to them as a unit."""
        self._file.flush()
        self.stats.wal_appends += count
        self._pending += count
        if self._pending >= self.fsync_batch:
            self._fsync()

    def sync(self) -> None:
        """Force the group-commit boundary (checkpoint/close path)."""
        self._file.flush()
        if self._pending:
            self._fsync()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        self._file.close()
        self._closed = True

    def crash(self) -> None:
        """Abandon the log the way a killed process would: no final
        fsync, no cleanup — just drop the file handle."""
        if self._closed:
            return
        self._file.close()
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def replay(
    path: str | Path,
    stats: StorageStats | None = None,
    truncate_torn_tail: bool = True,
) -> list[bytes]:
    """Read every intact record payload of a WAL file, in append order.

    A torn tail — short frame, short payload, or CRC mismatch — ends
    the replay at the last intact record; with ``truncate_torn_tail``
    the file is truncated there so the next append writes over the
    garbage.  A header cut short is a torn header (the whole file is
    reset); a complete header that is not :data:`MAGIC` raises.  A
    missing file replays as empty.
    """
    path = Path(path)
    if stats is None:
        stats = StorageStats()
    if not path.exists():
        return []
    records: list[bytes] = []
    with open(path, "r+b") as f:
        header = f.read(len(MAGIC))
        if header != MAGIC:
            if len(header) == len(MAGIC) or not MAGIC.startswith(header):
                raise format_error(path, f"WAL magic {header!r} is not {MAGIC!r}")
            # A crash while the header itself was being written.
            stats.torn_tail_truncations += 1
            if truncate_torn_tail:
                f.seek(0)
                f.truncate(0)
                f.write(MAGIC)
            return []
        good_offset = f.tell()
        torn = False
        while True:
            frame = f.read(_FRAME.size)
            if not frame:
                break
            if len(frame) < _FRAME.size:
                torn = True
                break
            length, crc = _FRAME.unpack(frame)
            payload = f.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                torn = True
                break
            records.append(payload)
            good_offset = f.tell()
        if torn:
            stats.torn_tail_truncations += 1
            if truncate_torn_tail:
                f.truncate(good_offset)
        stats.wal_records_replayed += len(records)
    return records
