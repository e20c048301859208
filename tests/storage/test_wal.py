"""Write-ahead log: replay order, group commit, torn-tail truncation."""

import struct
import zlib

import pytest

from repro.geometry import GeoPoint
from repro.sensors.sensor import Reading, Sensor
from repro.storage import FormatError, WriteAheadLog
from repro.storage.codec import encode_batch, encode_sensors_frame
from repro.storage.stats import StorageStats
from repro.storage.wal import MAGIC, replay


def make_records(n: int) -> list[bytes]:
    return [
        encode_batch([Reading(i, i * 0.5, float(i), float(i + 60))], float(i))
        for i in range(n)
    ]


EMPTY_BATCH = encode_batch([], 9.0)


class TestReplay:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "w.log"
        with WriteAheadLog(path) as wal:
            for record in make_records(10):
                wal.append(record)
        assert replay(path) == make_records(10)

    def test_missing_file_replays_empty(self, tmp_path):
        assert replay(tmp_path / "absent.log") == []

    def test_crash_loses_nothing_appended(self, tmp_path):
        # append() flushes to the OS, so dropping the handle without the
        # final fsync (a process kill) keeps every acknowledged record.
        path = tmp_path / "w.log"
        wal = WriteAheadLog(path, fsync_batch=1000)
        for record in make_records(7):
            wal.append(record)
        wal.crash()
        assert replay(path) == make_records(7)

    def test_replay_counts_records(self, tmp_path):
        path = tmp_path / "w.log"
        with WriteAheadLog(path) as wal:
            for record in make_records(5):
                wal.append(record)
        stats = StorageStats()
        replay(path, stats=stats)
        assert stats.wal_records_replayed == 5


class TestGroupCommit:
    def test_fsync_every_batch_boundary(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", fsync_batch=4)
        before = wal.stats.wal_fsyncs
        for record in make_records(10):
            wal.append(record)
        assert wal.stats.wal_fsyncs - before == 2  # at 4 and 8
        wal.sync()
        assert wal.stats.wal_fsyncs - before == 3  # the pending 2
        assert wal.stats.wal_appends == 10

    def test_fsync_disabled_still_flushes(self, tmp_path):
        path = tmp_path / "w.log"
        wal = WriteAheadLog(path, fsync_batch=1, fsync_enabled=False)
        wal.append(encode_sensors_frame([Sensor(1, GeoPoint(0.0, 0.0), 60.0)]))
        wal.crash()
        assert wal.stats.wal_fsyncs == 0
        assert len(replay(path)) == 1


class TestAppendMany:
    def test_file_is_byte_identical_to_one_append_per_record(self, tmp_path):
        records = make_records(40) + [
            encode_sensors_frame([Sensor(7, GeoPoint(1.5, -2.5), 600.0, "wind", 0.9)])
        ]
        with WriteAheadLog(tmp_path / "one.log") as one:
            for record in records:
                one.append(record)
        with WriteAheadLog(tmp_path / "many.log") as many:
            many.append_many(records)
        raw = (tmp_path / "many.log").read_bytes()
        assert raw == (tmp_path / "one.log").read_bytes()
        assert many.stats.wal_appends == one.stats.wal_appends == 41
        # ... and both are the documented layout, frame for frame.
        assert raw == MAGIC + b"".join(
            struct.pack("<II", len(p), zlib.crc32(p)) + p for p in records
        )
        assert replay(tmp_path / "many.log") == records

    def test_batch_at_least_fsync_batch_long_returns_fully_synced(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", fsync_batch=4)
        before = wal.stats.wal_fsyncs
        wal.append_many(make_records(10))
        assert wal.stats.wal_fsyncs - before == 1
        wal.sync()  # nothing pending: no further fsync
        assert wal.stats.wal_fsyncs - before == 1
        assert wal.stats.wal_appends == 10

    def test_short_batch_stays_pending_until_the_boundary(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.log", fsync_batch=4)
        before = wal.stats.wal_fsyncs
        wal.append_many(make_records(3))
        assert wal.stats.wal_fsyncs - before == 0
        wal.append(EMPTY_BATCH)
        assert wal.stats.wal_fsyncs - before == 1

    def test_empty_batch_writes_nothing_and_moves_no_boundary(self, tmp_path):
        path = tmp_path / "w.log"
        wal = WriteAheadLog(path, fsync_batch=4)
        wal.append_many(make_records(3))
        size, fsyncs = path.stat().st_size, wal.stats.wal_fsyncs
        wal.append_many([])
        assert path.stat().st_size == size
        assert (wal.stats.wal_fsyncs, wal.stats.wal_appends) == (fsyncs, 3)
        wal.append(EMPTY_BATCH)  # the fourth pending record
        assert wal.stats.wal_fsyncs == fsyncs + 1

    def test_fsync_disabled_still_flushes_the_batch(self, tmp_path):
        path = tmp_path / "w.log"
        wal = WriteAheadLog(path, fsync_batch=1, fsync_enabled=False)
        wal.append_many(make_records(5))
        wal.crash()
        assert wal.stats.wal_fsyncs == 0
        assert replay(path) == make_records(5)

    def test_batch_torn_at_any_byte_replays_the_intact_prefix(self, tmp_path):
        records = make_records(5)
        source = tmp_path / "whole.log"
        with WriteAheadLog(source) as wal:
            wal.append_many(records)
        raw = source.read_bytes()
        boundaries = [len(MAGIC)]
        for record in records:
            boundaries.append(boundaries[-1] + 8 + len(record))
        assert boundaries[-1] == len(raw)
        torn = tmp_path / "torn.log"
        for cut in range(len(MAGIC), len(raw) + 1):
            torn.write_bytes(raw[:cut])
            intact = sum(1 for b in boundaries[1:] if b <= cut)
            stats = StorageStats()
            assert replay(torn, stats=stats) == records[:intact]
            assert stats.torn_tail_truncations == (0 if cut in boundaries else 1)
            assert torn.stat().st_size == boundaries[intact]


class TestTornTail:
    def test_garbage_tail_truncated(self, tmp_path):
        path = tmp_path / "w.log"
        with WriteAheadLog(path) as wal:
            for record in make_records(6):
                wal.append(record)
        with open(path, "ab") as f:
            f.write(b"\x13\x37garbage-half-frame")
        stats = StorageStats()
        assert replay(path, stats=stats) == make_records(6)
        assert stats.torn_tail_truncations == 1
        # The truncation removed the garbage: a second replay is clean.
        stats2 = StorageStats()
        assert replay(path, stats=stats2) == make_records(6)
        assert stats2.torn_tail_truncations == 0

    def test_corrupt_byte_in_last_record_drops_only_it(self, tmp_path):
        path = tmp_path / "w.log"
        with WriteAheadLog(path) as wal:
            for record in make_records(6):
                wal.append(record)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a byte inside the last payload: CRC breaks
        path.write_bytes(bytes(raw))
        stats = StorageStats()
        assert replay(path, stats=stats) == make_records(5)
        assert stats.torn_tail_truncations == 1

    def test_append_after_truncation_continues_cleanly(self, tmp_path):
        path = tmp_path / "w.log"
        first, second = encode_batch([], 0.0), encode_batch([], 1.0)
        with WriteAheadLog(path) as wal:
            wal.append(first)
        with open(path, "ab") as f:
            f.write(b"\x01")  # torn frame
        replay(path)  # truncates
        with WriteAheadLog(path) as wal:
            wal.append(second)
        assert replay(path) == [first, second]

    def test_torn_header_resets_file(self, tmp_path):
        path = tmp_path / "w.log"
        for torn in (b"", MAGIC[:1], MAGIC[:-1]):
            path.write_bytes(torn)
            stats = StorageStats()
            assert replay(path, stats=stats) == []
            assert stats.torn_tail_truncations == 1
            assert path.read_bytes() == MAGIC

    @pytest.mark.parametrize(
        "header", [b"COLRWAL1" + b"\x00" * 8, b"not a wal file at all"]
    )
    def test_older_or_foreign_magic_raises_naming_the_converter(self, tmp_path, header):
        path = tmp_path / "w.log"
        path.write_bytes(header)
        stats = StorageStats()
        for truncate in (True, False):
            with pytest.raises(FormatError, match="python -m repro.convert"):
                replay(path, stats=stats, truncate_torn_tail=truncate)
        assert stats.torn_tail_truncations == 0
        assert path.read_bytes() == header  # never truncated

    def test_read_only_replay_leaves_file_alone(self, tmp_path):
        path = tmp_path / "w.log"
        with WriteAheadLog(path) as wal:
            wal.append(EMPTY_BATCH)
        with open(path, "ab") as f:
            f.write(b"\x01")
        size = path.stat().st_size
        replay(path, truncate_torn_tail=False)
        assert path.stat().st_size == size
