"""A crash inside ``wipe_data_dir``.

``wipe_data_dir`` deletes the manifest first, then every checkpoint and
WAL, passing the ``dir.wipe`` fail point before each of those.  A crash
at any of them leaves a directory without a manifest, which holds no
state: it reopens wiped (what is left is deleted, never replayed), can
be created afresh at an image, and a rebalance-journal resolve cut short
there resolves the same way when it runs again.
"""

import pytest

from repro import failpoints
from repro.rebalance import resolve_pending
from repro.rebalance.journal import MigrationJournal
from repro.storage import StorageConfig, StorageEngine, stored_sensor_ids, wipe_data_dir
from repro.storage.engine import holds_state

from tests.storage.test_engine import make_batch, make_sensors

SENSORS = make_sensors(6)


class Crash(BaseException):
    """Process death at an armed fail point."""


def _crash_at_wipe(k: int, call) -> None:
    """Run ``call`` with a crash at its ``k``-th ``dir.wipe`` point."""
    seen = 0

    def hook(name: str) -> None:
        nonlocal seen
        if name == "dir.wipe":
            seen += 1
            if seen == k:
                raise Crash

    with pytest.raises(Crash), failpoints.armed(hook):
        call()


def _wipe_points(call) -> int:
    seen: list[str] = []
    with failpoints.armed(seen.append):
        call()
    return seen.count("dir.wipe")


def _config(path) -> StorageConfig:
    return StorageConfig(data_dir=path, fsync_enabled=False)


def _populated(cfg: StorageConfig) -> StorageConfig:
    """An epoch-1 directory: ``checkpoint-1``, a ``wal-1`` holding a
    batch, and the manifest naming both."""
    engine = StorageEngine.create(cfg, SENSORS, [], 0.0)
    engine.journal_batch(make_batch(SENSORS, 10.0), fetched_at=10.0)
    engine.close()
    assert stored_sensor_ids(cfg) == {s.sensor_id for s in SENSORS}
    return cfg


def _assert_wiped(cfg: StorageConfig, context: str) -> None:
    assert not holds_state(cfg), context
    engine = StorageEngine(cfg)
    try:
        assert not engine.recovered.has_state, context
        assert engine.recovered.wal_records == 0, context
    finally:
        engine.close()
    assert sorted(p.name for p in cfg.path.iterdir()) == ["MANIFEST.json", "wal-1.log"]


def test_crash_at_each_wipe_point_reopens_wiped(tmp_path):
    reference = _populated(_config(tmp_path / "reference"))
    points = _wipe_points(lambda: wipe_data_dir(reference.path))
    assert points == 2  # checkpoint-1 and wal-1; the manifest went first
    for k in range(1, points + 1):
        cfg = _populated(_config(tmp_path / f"k{k}"))
        _crash_at_wipe(k, lambda: wipe_data_dir(cfg.path))
        _assert_wiped(cfg, f"crash at wipe point {k}")


def test_crash_at_each_wipe_point_can_be_recreated(tmp_path):
    for k in (1, 2):
        cfg = _populated(_config(tmp_path / f"k{k}"))
        _crash_at_wipe(k, lambda: wipe_data_dir(cfg.path))
        StorageEngine.create(cfg, SENSORS[:3], [], 0.0).close()
        engine = StorageEngine(cfg)
        assert [s.sensor_id for s in engine.recovered.sensors] == [0, 1, 2]
        assert engine.recovered.batches == []
        engine.close()


def _pending_split(storage: StorageConfig) -> None:
    """Shard 0 durably holds the whole fleet; a journaled split, already
    prepared, gives half of it to shard 1.  Resolving rolls forward and
    wipes shard 0."""
    ids = [s.sensor_id for s in SENSORS]
    _populated(storage.for_shard(0))
    journal = MigrationJournal(root=storage.path)
    journal.write_intent("split", {0: ids}, {0: ids[:3], 1: ids[3:]})
    journal.advance("prepared")


def _decision(resolution) -> tuple:
    return resolution.op, resolution.phase, resolution.action, resolution.membership


def test_resolve_cut_short_inside_a_wipe_resolves_again(tmp_path):
    reference = _config(tmp_path / "reference")
    _pending_split(reference)
    resolved: list = []
    points = _wipe_points(lambda: resolved.append(resolve_pending(reference)))
    assert points == 2
    (expected,) = resolved
    assert expected.action == "rolled_forward" and expected.wiped_shards == (0,)
    for k in range(1, points + 1):
        storage = _config(tmp_path / f"k{k}")
        _pending_split(storage)
        _crash_at_wipe(k, lambda: resolve_pending(storage))
        again = resolve_pending(storage)
        assert again is not None, "the journal outlives a crash inside its resolve"
        assert _decision(again) == _decision(expected)
        assert resolve_pending(storage) is None
        _assert_wiped(storage.for_shard(0), f"crash at wipe point {k}")
