"""Named fail points on the durable write path.

Every step after which a crash leaves a different state on disk calls
:func:`hit` with its name first.  Unarmed, a point costs one global
read.  Armed (:func:`armed`), each point calls the hook with its name;
a hook that raises is a crash *at* that point — the step itself has not
run.  Tests count the points a workload reaches, then crash at each in
turn (``tests/storage/test_crash_sweep.py``).

The hook is process-global because the points sit deep in the storage
layer, far from anything a caller could hand an object to; ``armed``
restores the previous hook on exit, so nothing leaks between tests.  A
worker process forked while a hook is armed inherits it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["POINTS", "armed", "hit"]

#: Every fail point, in write-path order.
POINTS = (
    "wal.write",  # a WAL frame (or a fresh WAL's magic) is handed to the OS
    "wal.fsync",  # a WAL group commit
    "page.write",  # a checkpoint page (data or header) is written
    "page.fsync",  # a checkpoint file is made durable
    "manifest.write",  # MANIFEST.tmp is written and fsynced
    "manifest.rename",  # MANIFEST.tmp replaces MANIFEST.json
    "dir.fsync",  # a directory's entries are made durable
    "dir.wipe",  # a wipe, its manifest gone, deletes its next data file
    "journal.intent",  # the rebalance journal records a step's intent
    "journal.prepared",  # ... advances to prepared (roll forward from here)
    "journal.committed",  # ... is deleted: the step is committed
    "mover.captured",  # a step has exported the warm cache it moves
    "mover.intent",  # ... has journaled its intent
    "mover.prepared",  # ... has staged every shard, before the flip
)
_KNOWN = frozenset(POINTS)

_hook: Callable[[str], None] | None = None


def hit(name: str) -> None:
    """Pass fail point ``name``: a no-op unless a hook is armed."""
    hook = _hook
    if hook is not None:
        if name not in _KNOWN:
            raise KeyError(f"unknown fail point {name!r}")
        hook(name)


@contextmanager
def armed(hook: Callable[[str], None]) -> Iterator[None]:
    """Call ``hook(name)`` at every fail point reached inside the block."""
    global _hook
    previous, _hook = _hook, hook
    try:
        yield
    finally:
        _hook = previous
