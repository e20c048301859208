"""Paged, crash-safe storage under the portal.

The deployed portal (Section III) keeps its slot caches in SQL Server;
this package gives the reproduction the same durability posture without
a database server: a slotted page file with CRC-checksummed 4 KiB pages
and a free-list (:mod:`repro.storage.pager`), heap/sequential record
files over page chains (:mod:`repro.storage.heap`), a redo-only
fsync-batched write-ahead log journaling trigger-driven slot-cache
updates (:mod:`repro.storage.wal`), the versioned byte layouts of every
record (:mod:`repro.storage.codec`), and the engine tying them together
with atomic checkpoints and crash recovery (:mod:`repro.storage.engine`).

Everything is opt-in: ``SensorMapPortal(storage=StorageConfig(...))``
turns it on; the default ``storage=None`` portal is bit-identical to
the historical in-memory behavior.
"""

from repro.storage.codec import FormatError
from repro.storage.config import StorageConfig
from repro.storage.engine import (
    RecoveredState,
    StorageEngine,
    stored_sensor_ids,
    wipe_data_dir,
)
from repro.storage.heap import RecordHeap
from repro.storage.pager import PageCorruptionError, Pager
from repro.storage.stats import StorageStats
from repro.storage.wal import WriteAheadLog

__all__ = [
    "FormatError",
    "PageCorruptionError",
    "Pager",
    "RecordHeap",
    "RecoveredState",
    "StorageConfig",
    "StorageEngine",
    "StorageStats",
    "WriteAheadLog",
    "stored_sensor_ids",
    "wipe_data_dir",
]
