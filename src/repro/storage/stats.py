"""Disk-I/O accounting.

One :class:`StorageStats` instance rides on each
:class:`~repro.storage.engine.StorageEngine` (and on any standalone
:class:`~repro.storage.pager.Pager`); every page read/write and WAL
append/fsync bumps a counter.  The portal meters deltas of these
counters into ``QueryStats`` / ``NetworkStats`` so disk I/O shows up in
the bench reports next to probe accounting, and the recovery-time model
converts the replay counters into deterministic modeled seconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StorageStats:
    """Cumulative storage-engine accounting."""

    page_reads: int = 0
    page_writes: int = 0
    wal_appends: int = 0
    wal_fsyncs: int = 0
    # Recovery-path accounting: WAL records re-applied on open, torn
    # tails detected by CRC and truncated, checkpoints taken, and
    # recoveries performed.
    wal_records_replayed: int = 0
    torn_tail_truncations: int = 0
    checkpoints: int = 0
    recoveries: int = 0

    def io_counters(self) -> tuple[int, int, int, int]:
        """The four serving-path counters, for cheap delta metering."""
        return (
            self.page_reads,
            self.page_writes,
            self.wal_appends,
            self.wal_fsyncs,
        )
