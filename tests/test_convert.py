"""The one-shot converter: pickled (format-2) checkpoints and COLRWAL1
logs become codec files, and nothing it reads can name a global."""

import json
import pickle
import struct
import zlib

import pytest

from repro.convert import convert, main
from repro.geometry import GeoPoint
from repro.sensors.sensor import Reading, Sensor
from repro.storage import FormatError, StorageConfig, StorageEngine
from repro.storage.heap import RecordHeap
from repro.storage.pager import Pager


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def legacy_checkpoint(path, meta, sensors, cached) -> None:
    """A page file as format 2 wrote it: one pickle per record."""
    pager = Pager(path)
    RecordHeap(pager, "meta").append(_dumps(meta))
    RecordHeap(pager, "sensors").append_many(_dumps(s) for s in sensors)
    RecordHeap(pager, "readings").append_many(_dumps(c) for c in cached)
    pager.close()


def legacy_wal(path, records, tail=b"") -> None:
    frames = b"".join(
        struct.pack("<II", len(p), zlib.crc32(p)) + p for p in map(_dumps, records)
    )
    path.write_bytes(b"COLRWAL1" + frames + tail)


def legacy_data_dir(data):
    data.mkdir(parents=True)
    (data / "MANIFEST.json").write_text(
        json.dumps({"format": 1, "epoch": 2, "checkpoint": "checkpoint-2.db"})
    )
    legacy_checkpoint(
        data / "checkpoint-2.db",
        {"format": 2, "epoch": 2, "clock_now": 30.0},
        [(0, 1.0, 2.0, 300.0, "water", 0.5, (("k", "v"),))],
        [((0, 7.5, 30.0, 330.0), 30.0)],
    )
    legacy_wal(
        data / "wal-2.log",
        [
            ("sensor", (1, 3.0, 4.0, 300.0, "generic", 1.0, ())),
            ("batch", 40.0, ((1, 2.5, 40.0, 340.0), (0, 8.5, 40.0, 340.0))),
        ],
        tail=b"\x07torn",
    )


def test_data_dir_is_refused_then_converted_then_recovers(tmp_path):
    data = tmp_path / "data"
    legacy_data_dir(data)
    cfg = StorageConfig(data_dir=data, fsync_enabled=False)
    with pytest.raises(FormatError, match="python -m repro.convert"):
        StorageEngine(cfg)
    assert convert(data) == [data / "checkpoint-2.db", data / "wal-2.log"]
    assert convert(data) == []  # already current
    engine = StorageEngine(cfg)
    rec = engine.recovered
    engine.close()
    assert rec.sensors == [
        Sensor(0, GeoPoint(1.0, 2.0), 300.0, "water", 0.5, (("k", "v"),)),
        Sensor(1, GeoPoint(3.0, 4.0), 300.0),
    ]
    assert rec.batches == [
        (30.0, [Reading(0, 7.5, 30.0, 330.0)]),
        (40.0, [Reading(1, 2.5, 40.0, 340.0), Reading(0, 8.5, 40.0, 340.0)]),
    ]
    assert rec.clock_now == 40.0 and not rec.torn_tail_truncated


def test_federation_dir_converts_every_shard(tmp_path, capsys):
    for shard in (0, 1):
        legacy_data_dir(tmp_path / f"shard-{shard}")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("converted") == 4
    for shard in (0, 1):
        cfg = StorageConfig(data_dir=tmp_path / f"shard-{shard}", fsync_enabled=False)
        StorageEngine(cfg).close()


def test_a_pickled_global_is_refused_and_the_file_kept(tmp_path):
    path = tmp_path / "evil.snap"
    legacy_checkpoint(path, {"format_version": 2, "payload": GeoPoint(0.0, 0.0)}, [], [])
    before = path.read_bytes()
    with pytest.raises(pickle.UnpicklingError, match="refusing to load global"):
        convert(path)
    assert path.read_bytes() == before
