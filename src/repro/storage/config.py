"""Storage-engine tunables.

``StorageConfig`` is the single opt-in knob: handing one to
``SensorMapPortal`` (or ``FederatedPortal``, which derives per-shard
sub-directories with :meth:`StorageConfig.for_shard`) turns the
in-memory portal into a durable one.  It says where the state lives and
whether writes are fsynced — the host's durability posture.  The page
size (:data:`repro.storage.pager.PAGE_SIZE`), the WAL group-commit width
(:data:`repro.storage.wal.FSYNC_BATCH`) and the recovery cost constants
(:mod:`repro.storage.engine`), which convert recovery work into
deterministic modeled seconds the way
:class:`~repro.core.stats.ProcessingCostModel` converts query work, are
module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class StorageConfig:
    """Where and how a portal persists its state.

    Parameters
    ----------
    data_dir:
        Directory holding the manifest, checkpoint page file and WAL.
        Created on first open.  Federations place shard ``i`` under
        ``data_dir/shard-<i>``.
    fsync_enabled:
        ``False`` skips all fsyncs (tests and benchmarks that only
        simulate process crashes can run faster; durability against OS
        crashes is then off).  Every WAL append is still flushed to the
        OS, so a process kill (SIGKILL) loses nothing either way.
    """

    data_dir: str | Path
    fsync_enabled: bool = True

    @property
    def path(self) -> Path:
        return Path(self.data_dir)

    def for_shard(self, shard_id: int) -> "StorageConfig":
        """The derived config of one federation shard: same tunables,
        sub-directory ``shard-<id>`` of the federation's data dir."""
        return replace(self, data_dir=self.path / f"shard-{shard_id}")
