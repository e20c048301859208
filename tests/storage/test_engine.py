"""Storage engine: journaling, recovery, checkpoint rotation, sweep."""

import pytest

from repro.geometry import GeoPoint
from repro.sensors.registry import SensorRegistry
from repro.sensors.sensor import Reading
from repro.storage import StorageConfig, StorageEngine, stored_sensor_ids, wipe_data_dir
from repro.storage.engine import PER_WAL_RECORD_SECONDS, describe_data_dir


def make_sensors(n: int):
    registry = SensorRegistry()
    return [
        registry.register(
            GeoPoint(float(i), float(i)), expiry_seconds=300.0,
            sensor_type="temperature",
        )
        for i in range(n)
    ]


def make_batch(sensors, fetched_at: float) -> list[Reading]:
    return [
        Reading(
            sensor_id=s.sensor_id,
            value=fetched_at + s.sensor_id,
            timestamp=fetched_at,
            expires_at=fetched_at + s.expiry_seconds,
        )
        for s in sensors
    ]


def config(tmp_path, **kw) -> StorageConfig:
    return StorageConfig(data_dir=tmp_path / "data", fsync_enabled=False, **kw)


class TestFreshDirectory:
    def test_empty_dir_recovers_nothing(self, tmp_path):
        engine = StorageEngine(config(tmp_path))
        assert not engine.recovered.has_state
        assert engine.recovered.batches == []
        assert engine.recovery_cost_seconds == 0.0
        assert engine.stats.recoveries == 0
        engine.close()

    def test_manifest_written_on_first_open(self, tmp_path):
        StorageEngine(config(tmp_path)).close()
        info = describe_data_dir(tmp_path / "data")
        assert info["exists"] and info["epoch"] == 1
        assert info["checkpoint"] is None


class TestWalRecovery:
    def test_crash_recovers_registrations_and_batches(self, tmp_path):
        sensors = make_sensors(5)
        engine = StorageEngine(config(tmp_path))
        for s in sensors:
            engine.journal_register(s)
        engine.journal_batch(make_batch(sensors, 10.0), fetched_at=10.0)
        engine.journal_batch(make_batch(sensors[:2], 40.0), fetched_at=40.0)
        engine.crash()
        recovered = StorageEngine(config(tmp_path)).recovered
        assert [s.sensor_id for s in recovered.sensors] == [0, 1, 2, 3, 4]
        assert [f for f, _ in recovered.batches] == [10.0, 40.0]
        assert recovered.reading_count == 7
        assert recovered.clock_now == 40.0
        assert recovered.wal_records == 7  # 5 registrations + 2 batches

    def test_batches_keep_original_boundaries_and_order(self, tmp_path):
        sensors = make_sensors(3)
        engine = StorageEngine(config(tmp_path))
        batches = [make_batch(sensors, t) for t in (5.0, 3.0, 9.0)]
        for t, batch in zip((5.0, 3.0, 9.0), batches):
            engine.journal_batch(batch, fetched_at=t)
        engine.crash()
        recovered = StorageEngine(config(tmp_path)).recovered
        # Append order, not fetch-time order: replay is a redo log.
        assert [f for f, _ in recovered.batches] == [5.0, 3.0, 9.0]
        assert recovered.batches[1][1] == batches[1]

    def test_empty_batch_not_journaled(self, tmp_path):
        engine = StorageEngine(config(tmp_path))
        appends_before = engine.stats.wal_appends
        engine.journal_batch([], fetched_at=1.0)
        assert engine.stats.wal_appends == appends_before
        engine.close()

    def test_torn_tail_recovers_prefix(self, tmp_path):
        sensors = make_sensors(2)
        engine = StorageEngine(config(tmp_path))
        engine.journal_batch(make_batch(sensors, 1.0), fetched_at=1.0)
        engine.journal_batch(make_batch(sensors, 2.0), fetched_at=2.0)
        engine.crash()
        wal_path = next((tmp_path / "data").glob("wal-*.log"))
        raw = bytearray(wal_path.read_bytes())
        raw[-1] ^= 0xFF
        wal_path.write_bytes(bytes(raw))
        recovered = StorageEngine(config(tmp_path)).recovered
        assert recovered.torn_tail_truncated
        assert [f for f, _ in recovered.batches] == [1.0]

    def test_recovery_cost_scales_with_wal_records(self, tmp_path):
        sensors = make_sensors(4)
        engine = StorageEngine(config(tmp_path))
        for s in sensors:
            engine.journal_register(s)
        engine.crash()
        reopened = StorageEngine(config(tmp_path))
        expected = 4 * PER_WAL_RECORD_SECONDS
        assert reopened.recovery_cost_seconds == pytest.approx(expected)
        assert reopened.stats.recoveries == 1


class TestCheckpoint:
    def test_checkpoint_then_reopen_needs_no_wal(self, tmp_path):
        sensors = make_sensors(6)
        engine = StorageEngine(config(tmp_path))
        for s in sensors:
            engine.journal_register(s)
        batch = make_batch(sensors, 20.0)
        engine.journal_batch(batch, fetched_at=20.0)
        engine.checkpoint(
            sensors=sensors,
            cached=[(r, 20.0) for r in batch],
            clock_now=25.0,
        )
        engine.close()
        reopened = StorageEngine(config(tmp_path))
        rec = reopened.recovered
        assert rec.wal_records == 0
        assert rec.checkpoint_pages > 0
        assert [s.sensor_id for s in rec.sensors] == [s.sensor_id for s in sensors]
        assert rec.reading_count == 6
        assert rec.clock_now == 25.0
        reopened.close()

    def test_checkpoint_rotates_files(self, tmp_path):
        engine = StorageEngine(config(tmp_path))
        engine.checkpoint(sensors=make_sensors(1), cached=[], clock_now=0.0)
        data = tmp_path / "data"
        assert [p.name for p in data.glob("checkpoint-*.db")] == ["checkpoint-2.db"]
        assert [p.name for p in data.glob("wal-*.log")] == ["wal-2.log"]
        assert engine.epoch == 2
        engine.close()

    def test_journal_after_checkpoint_replays_on_top(self, tmp_path):
        sensors = make_sensors(3)
        engine = StorageEngine(config(tmp_path))
        batch = make_batch(sensors, 10.0)
        engine.checkpoint(
            sensors=sensors, cached=[(r, 10.0) for r in batch], clock_now=10.0
        )
        engine.journal_batch(make_batch(sensors, 50.0), fetched_at=50.0)
        engine.crash()
        rec = StorageEngine(config(tmp_path)).recovered
        assert [f for f, _ in rec.batches] == [10.0, 50.0]
        assert rec.clock_now == 50.0


class TestHygiene:
    def test_stale_files_swept_on_open(self, tmp_path):
        StorageEngine(config(tmp_path)).close()
        data = tmp_path / "data"
        (data / "checkpoint-99.db").write_bytes(b"leftover")
        (data / "wal-99.log").write_bytes(b"leftover")
        StorageEngine(config(tmp_path)).close()
        assert not (data / "checkpoint-99.db").exists()
        assert not (data / "wal-99.log").exists()

    def test_stored_sensor_ids(self, tmp_path):
        cfg = config(tmp_path)
        assert stored_sensor_ids(cfg) == set()
        engine = StorageEngine(cfg)
        for s in make_sensors(3):
            engine.journal_register(s)
        engine.close()
        assert stored_sensor_ids(cfg) == {0, 1, 2}

    def test_wipe_data_dir(self, tmp_path):
        cfg = config(tmp_path)
        engine = StorageEngine(cfg)
        engine.journal_register(make_sensors(1)[0])
        engine.close()
        wipe_data_dir(cfg.path)
        assert stored_sensor_ids(cfg) == set()
        assert not (cfg.path / "MANIFEST.json").exists()

    def test_describe_is_read_only_on_torn_tail(self, tmp_path):
        engine = StorageEngine(config(tmp_path))
        engine.journal_batch(make_batch(make_sensors(1), 1.0), fetched_at=1.0)
        engine.crash()
        wal_path = next((tmp_path / "data").glob("wal-*.log"))
        with open(wal_path, "ab") as f:
            f.write(b"\x01")
        size = wal_path.stat().st_size
        info = describe_data_dir(tmp_path / "data")
        assert info["wal"]["torn_tail"] is True
        assert wal_path.stat().st_size == size  # not truncated


class TestCreateAtImage:
    """``StorageEngine.create``: a directory with no state opens straight
    at an in-memory image, written once."""

    def image(self):
        sensors = make_sensors(5)
        cached = [(r, 30.0) for r in make_batch(sensors[:3], 30.0)]
        return sensors, cached

    def test_reopen_recovers_the_image_from_the_checkpoint_alone(self, tmp_path):
        sensors, cached = self.image()
        engine = StorageEngine.create(config(tmp_path), sensors, cached, clock_now=45.0)
        assert not engine.recovered.has_state and engine.recovery_cost_seconds == 0.0
        engine.journal_batch(make_batch(sensors[3:], 50.0), fetched_at=50.0)
        engine.crash()
        data = tmp_path / "data"
        assert sorted(p.name for p in data.iterdir()) == [
            "MANIFEST.json",
            "checkpoint-1.db",
            "wal-1.log",
        ]
        rec = StorageEngine(config(tmp_path)).recovered
        assert rec.sensors == sensors
        assert rec.batches == [(30.0, [r for r, _ in cached]), (50.0, make_batch(sensors[3:], 50.0))]
        assert rec.wal_records == 1  # no registration records
        assert rec.clock_now == 50.0

    def test_five_fsyncs_and_no_rotation(self, tmp_path, monkeypatch):
        import os

        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
        sensors, cached = self.image()
        engine = StorageEngine.create(
            StorageConfig(data_dir=tmp_path / "data"), sensors, cached, clock_now=0.0
        )
        # checkpoint-1, wal-1, the directory, MANIFEST.tmp, the directory.
        assert len(calls) == 5
        assert engine.epoch == 1 and engine.stats.checkpoints == 0
        engine.close()

    def test_refuses_a_directory_that_holds_state(self, tmp_path):
        StorageEngine(config(tmp_path)).close()
        with pytest.raises(FileExistsError):
            StorageEngine.create(config(tmp_path), make_sensors(1), [], clock_now=0.0)

    def test_deletes_files_no_manifest_names(self, tmp_path):
        # What a crash between a wipe's manifest unlink and its WAL unlink
        # leaves behind must not be appended to.
        engine = StorageEngine(config(tmp_path))
        engine.journal_batch(make_batch(make_sensors(2), 1.0), fetched_at=1.0)
        engine.crash()
        (tmp_path / "data" / "MANIFEST.json").unlink()
        StorageEngine.create(config(tmp_path), make_sensors(2), [], clock_now=0.0).close()
        rec = StorageEngine(config(tmp_path)).recovered
        assert rec.batches == [] and rec.wal_records == 0


class TestFormats:
    def test_older_wal_raises_naming_the_converter_and_is_kept(self, tmp_path):
        from repro.storage import FormatError

        StorageEngine(config(tmp_path)).close()
        wal = tmp_path / "data" / "wal-1.log"
        wal.write_bytes(b"COLRWAL1")
        with pytest.raises(FormatError, match="python -m repro.convert"):
            StorageEngine(config(tmp_path))
        assert wal.read_bytes() == b"COLRWAL1"
