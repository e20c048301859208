"""Durable portal: crash recovery, warm restart, checkpoint reopen."""

import math

import numpy as np
import pytest

from repro.geometry import GeoPoint, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.sensors.registry import SensorRegistry
from repro.storage import StorageConfig

QUERY = SensorQuery(
    region=Rect(10, 10, 80, 80), staleness_seconds=300.0, aggregate="sum"
)


def make_fleet(n: int = 120, seed: int = 0):
    rng = np.random.default_rng(seed)
    registry = SensorRegistry()
    return [
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(400, 600)),
            sensor_type=("temperature", "humidity")[i % 2],
        )
        for i in range(n)
    ]


def open_portal(fleet, tmp_path) -> SensorMapPortal:
    portal = SensorMapPortal(
        max_sensors_per_query=None,
        storage=StorageConfig(data_dir=tmp_path / "data", fsync_enabled=False),
    )
    portal.register_all(list(fleet))
    portal.rebuild_index()
    return portal


def fingerprint(portal) -> tuple[int, float, int]:
    result = portal.execute(QUERY)
    probes = sum(a.stats.sensors_probed for a in result.answers)
    return result.result_weight, result.aggregate(), probes


class TestCrashRecovery:
    def test_reopen_after_crash_is_bit_identical_and_probe_free(self, tmp_path):
        fleet = make_fleet()
        portal = open_portal(fleet, tmp_path)
        weight, total, probes = fingerprint(portal)
        assert probes > 0 and weight > 0
        clock = portal.clock.now()
        portal.crash()
        recovered = open_portal(fleet, tmp_path)
        recovered.clock.advance_to(clock)
        r_weight, r_total, r_probes = fingerprint(recovered)
        assert (r_weight, r_total) == (weight, total)  # bit-identical sums
        assert r_probes == 0
        recovered.close()

    def test_recovery_time_is_modeled(self, tmp_path):
        fleet = make_fleet()
        portal = open_portal(fleet, tmp_path)
        fingerprint(portal)
        assert portal.recovery_seconds == 0.0  # nothing was recovered
        portal.crash()
        recovered = open_portal(fleet, tmp_path)
        assert recovered.recovery_seconds > 0.0
        assert recovered.last_recovery.wal_records > 0
        recovered.close()

    def test_registering_conflicting_sensor_rejected(self, tmp_path):
        fleet = make_fleet(n=10)
        portal = open_portal(fleet, tmp_path)
        portal.crash()
        conflicting = list(fleet)
        registry = SensorRegistry()
        for s in fleet[:-1]:
            registry.register(
                s.location,
                expiry_seconds=s.expiry_seconds,
                sensor_type=s.sensor_type,
                availability=s.availability,
            )
        conflicting[-1] = registry.register(
            GeoPoint(-5.0, -5.0), expiry_seconds=1.0
        )
        with pytest.raises(ValueError, match="conflicts with the recovered"):
            open_portal(conflicting, tmp_path)

    def test_storage_counters_surface_in_stats(self, tmp_path):
        portal = open_portal(make_fleet(), tmp_path)
        result = portal.execute(QUERY)
        assert sum(a.stats.wal_appends for a in result.answers) > 0
        summary = portal.stats()
        assert summary["storage"]["wal_appends"] > 0
        portal.close()


class TestRegistrationBatch:
    """``register_all`` journals its fresh sensors as one group commit."""

    def durable(self, tmp_path) -> SensorMapPortal:
        return SensorMapPortal(
            max_sensors_per_query=None, storage=StorageConfig(data_dir=tmp_path / "data")
        )

    def test_crash_before_first_checkpoint_keeps_every_registration(self, tmp_path):
        fleet = make_fleet(n=1000)
        portal = self.durable(tmp_path)
        fsyncs = portal.storage.stats.wal_fsyncs
        portal.register_all(list(fleet))
        # 1,000 >= the WAL group-commit width: the whole batch is synced on return.
        assert portal.storage.stats.wal_appends == 1000
        assert portal.storage.stats.wal_fsyncs == fsyncs + 1
        portal.crash()

        reopened = self.durable(tmp_path)
        assert reopened.last_recovery.wal_records == 1000
        assert reopened.registry.all() == sorted(fleet, key=lambda s: s.sensor_id)
        wal = next((tmp_path / "data").glob("wal-*.log"))
        size = wal.stat().st_size
        reopened.register_all(list(fleet))  # all known: nothing is fresh
        assert reopened.storage.stats.wal_appends == 0
        assert wal.stat().st_size == size
        reopened.close()

    def test_empty_registration_neither_writes_nor_fsyncs(self, tmp_path):
        portal = self.durable(tmp_path)
        portal.register_all(make_fleet(n=3))  # 3 records pending, unsynced
        wal = next((tmp_path / "data").glob("wal-*.log"))
        size, fsyncs = wal.stat().st_size, portal.storage.stats.wal_fsyncs
        portal.register_all([])
        assert wal.stat().st_size == size
        assert portal.storage.stats.wal_fsyncs == fsyncs
        assert portal.storage.stats.wal_appends == 3
        portal.close()

    def test_journal_matches_one_register_per_sensor(self, tmp_path):
        fleet = make_fleet(n=50)
        batch = self.durable(tmp_path / "batch")
        batch.register_all(list(fleet))
        single = self.durable(tmp_path / "single")
        for sensor in fleet:
            single.storage.journal_register(sensor)
        logs = [
            next((tmp_path / name / "data").glob("wal-*.log")).read_bytes()
            for name in ("batch", "single")
        ]
        assert logs[0] == logs[1]
        batch.close()
        single.close()


class TestCheckpointReopen:
    def test_clean_checkpoint_round_trip(self, tmp_path):
        fleet = make_fleet()
        portal = open_portal(fleet, tmp_path)
        weight, total, _ = fingerprint(portal)
        clock = portal.clock.now()
        portal.checkpoint()
        portal.close()
        reopened = open_portal(fleet, tmp_path)
        assert reopened.last_recovery.wal_records == 0
        assert reopened.last_recovery.checkpoint_pages > 0
        reopened.clock.advance_to(clock)
        r_weight, r_total, r_probes = fingerprint(reopened)
        assert r_weight == weight
        assert math.isclose(r_total, total, rel_tol=1e-9)
        assert r_probes == 0
        reopened.close()

    def test_checkpoint_without_storage_raises(self):
        portal = SensorMapPortal(max_sensors_per_query=None)
        portal.register_all(make_fleet(n=10))
        portal.rebuild_index()
        with pytest.raises(RuntimeError):
            portal.checkpoint()

    def test_context_manager_closes_cleanly(self, tmp_path):
        fleet = make_fleet(n=20)
        with open_portal(fleet, tmp_path) as portal:
            fingerprint(portal)
        assert portal.storage.closed


class TestNoStorageDefault:
    def test_storage_none_changes_nothing(self, tmp_path):
        fleet = make_fleet()
        plain = SensorMapPortal(max_sensors_per_query=None)
        plain.register_all(list(fleet))
        plain.rebuild_index()
        durable = open_portal(fleet, tmp_path)
        assert fingerprint(plain) == fingerprint(durable)
        assert plain.storage is None
        assert plain.recovery_seconds == 0.0
        assert "storage" not in plain.stats()
        durable.close()
