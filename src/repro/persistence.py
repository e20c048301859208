"""Snapshot and restore: sensors, configuration and cache contents.

The deployed portal periodically reconstructs its index (Section
III-C); restarts must not begin with a cold cache, or the first minutes
of queries would re-probe the world.  A snapshot captures everything
needed to resume: the registered sensor metadata, the index
configuration, and the cached readings with their fetch times.  The
tree *structure* is not stored — the bulk build is deterministic given
the sensors and the config seed, so it is rebuilt on load and the
cached readings are re-inserted (re-running the aggregate maintenance,
which also re-validates them against the restored clock).

A snapshot file is the storage engine's checkpoint container — a
CRC-checksummed page file (see ``repro.storage.checkpoint``) holding the
snapshot meta, the sensors and the cached readings as the
``repro.storage.codec`` layouts crash recovery uses.  The meta stores
every ``COLRTreeConfig`` field by name; on load a stored key that is no
longer a field is dropped and a missing one takes its default.  Anything
else — a file of an older format among them, with the converter named —
raises ``SnapshotError``.  Networks and availability histories are
runtime objects the caller re-wires.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from repro.core.config import COLRTreeConfig
from repro.core.tree import COLRTree
from repro.sensors.availability import AvailabilityModel
from repro.sensors.network import SensorNetwork
from repro.sensors.sensor import Reading

FORMAT_VERSION = 3


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshot files."""


def save_tree(tree: COLRTree, path: str | Path, now: float) -> None:
    """Write a snapshot file (a checkpoint container)."""
    from repro.storage.checkpoint import write_checkpoint

    sensors = [tree.sensor(sid) for sid in sorted(tree._sensors)]
    cached: list[tuple[Reading, float]] = []
    for leaf in tree.root.iter_leaves():
        if leaf.leaf_cache is None:
            continue
        for entry in leaf.leaf_cache.entries():
            cached.append((entry.reading, entry.fetched_at))
    config = {f: getattr(tree.config, f) for f in tree.config.__dataclass_fields__}
    write_checkpoint(
        Path(path),
        meta={
            "format_version": FORMAT_VERSION,
            "saved_at": float(now),
            "config": config,
        },
        sensors=sensors,
        cached=cached,
    )


def load_tree(
    path: str | Path,
    network: SensorNetwork | None = None,
    availability_model: AvailabilityModel | None = None,
    network_seed: int = 0,
) -> COLRTree:
    """Read a snapshot file and rebuild the tree (structure + caches).

    ``network=None`` constructs a fresh simulated network over the
    restored sensors; pass an explicit network to re-wire a live one.
    """
    from repro.storage.checkpoint import is_checkpoint_file, read_checkpoint
    from repro.storage.codec import FormatError
    from repro.storage.pager import PageCorruptionError

    path = Path(path)
    if not is_checkpoint_file(path):
        raise SnapshotError(f"{path} is not a checkpoint container")
    try:
        meta, sensors, cached = read_checkpoint(path)
    except PageCorruptionError as exc:
        raise SnapshotError(f"corrupt snapshot: {exc}") from exc
    except FormatError as exc:
        raise SnapshotError(f"unreadable snapshot: {exc}") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    if not sensors:
        raise SnapshotError("snapshot holds no sensors")
    try:
        known = {f.name for f in fields(COLRTreeConfig)}
        config = COLRTreeConfig(
            **{key: value for key, value in meta["config"].items() if key in known}
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc
    if network is None:
        network = SensorNetwork(
            sensors, availability_model=availability_model, seed=network_seed
        )
    tree = COLRTree(
        sensors, config, network=network, availability_model=availability_model
    )
    saved_at = float(meta.get("saved_at", 0.0))
    for reading, fetched_at in cached:
        if not reading.is_valid_at(saved_at):
            continue  # expired while on disk
        tree.insert_reading(reading, fetched_at=fetched_at)
    tree._enforce_capacity()
    return tree
