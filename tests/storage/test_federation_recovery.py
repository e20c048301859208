"""Durable federation: shard kill/revive through disk, coordinator
restart over warm directories, stale-directory wipes."""

import numpy as np
import pytest

from repro.federation import FederatedPortal
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorQuery
from repro.sensors.registry import SensorRegistry
from repro.storage import StorageConfig

QUERY = SensorQuery(
    region=Rect(5, 5, 95, 95), staleness_seconds=300.0, aggregate="sum"
)


def make_fleet(n: int = 200, seed: int = 3):
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


def open_federation(fleet, tmp_path, n_shards: int = 3) -> FederatedPortal:
    portal = FederatedPortal(
        n_shards=n_shards,
        max_sensors_per_query=None,
        storage=StorageConfig(data_dir=tmp_path / "fed", fsync_enabled=False),
    )
    portal.register_all(list(fleet))
    portal.rebuild_index()
    return portal


def fingerprint(portal):
    result = portal.execute(QUERY)
    return result.result_weight, result.aggregate(), result


class TestKillRevive:
    def test_revive_recovers_from_disk_and_charges_gather(self, tmp_path):
        fleet = make_fleet()
        portal = open_federation(fleet, tmp_path)
        weight, total, _ = fingerprint(portal)
        warm_weight, warm_total, warm = fingerprint(portal)
        assert not warm.partial
        portal.kill_shard(0)
        _, _, degraded = fingerprint(portal)
        assert degraded.partial and 0 in degraded.failed_shards
        recovery_seconds = portal.revive_shard(0)
        assert recovery_seconds > 0.0
        assert portal.stats.shard_recoveries == 1
        assert portal.stats.recovery_seconds_total == pytest.approx(
            recovery_seconds
        )
        r_weight, r_total, revived = fingerprint(portal)
        assert not revived.partial
        assert (r_weight, r_total) == (warm_weight, warm_total)
        # The modeled recovery time lands in the revived shard's first
        # gather: the collection makespan is at least that long.
        assert revived.collection_seconds >= recovery_seconds
        portal.close()

    def test_revive_without_storage_is_free(self):
        portal = FederatedPortal(n_shards=2, max_sensors_per_query=None)
        portal.register_all(make_fleet(n=40))
        portal.rebuild_index()
        portal.kill_shard(1)
        assert portal.revive_shard(1) == 0.0
        assert portal.stats.shard_recoveries == 0
        portal.close()


class TestCoordinatorRestart:
    def test_restart_over_warm_directories_is_probe_free(self, tmp_path):
        fleet = make_fleet()
        portal = open_federation(fleet, tmp_path)
        weight, total, _ = fingerprint(portal)
        clock = portal.clock.now()
        portal.checkpoint()
        portal.close()
        restarted = open_federation(fleet, tmp_path)
        assert restarted.stats.shard_recoveries == restarted.n_shards
        assert restarted.stats.recovery_seconds_total > 0.0
        restarted.clock.advance_to(clock)
        r_weight, r_total, result = fingerprint(restarted)
        assert r_weight == weight
        assert r_total == pytest.approx(total, rel=1e-9)
        probes = sum(
            a.stats.sensors_probed
            for shard in result.shard_results.values()
            for a in shard.answers
        )
        assert probes == 0
        restarted.close()

    def test_stats_summary_reports_recoveries(self, tmp_path):
        fleet = make_fleet(n=60)
        portal = open_federation(fleet, tmp_path)
        portal.kill_shard(0)
        portal.revive_shard(0)
        summary = portal.stats_summary()
        assert summary["federation"]["shard_recoveries"] == 1
        assert summary["federation"]["recovery_seconds_total"] > 0.0
        portal.close()


class TestStaleDirectories:
    def test_repartition_wipes_mismatched_shard_dirs(self, tmp_path):
        fleet = make_fleet()
        portal = open_federation(fleet, tmp_path, n_shards=3)
        fingerprint(portal)
        portal.close()
        # A different shard count re-partitions the fleet: the stored
        # per-shard sensor sets no longer match, so every stale
        # directory is wiped and the rebuild starts cold (no recovery).
        repartitioned = open_federation(fleet, tmp_path, n_shards=2)
        assert repartitioned.stats.shard_recoveries == 0
        weight, _, result = fingerprint(repartitioned)
        assert weight > 0 and not result.partial
        # The out-of-range shard-2 directory was wiped of durable state.
        assert not (tmp_path / "fed" / "shard-2" / "MANIFEST.json").exists()
        repartitioned.close()


class TestRestage:
    def test_restage_writes_the_shard_once_in_five_fsyncs(self, tmp_path, monkeypatch):
        import os

        fleet = make_fleet(n=120)
        portal = FederatedPortal(
            n_shards=2,
            max_sensors_per_query=None,
            storage=StorageConfig(data_dir=tmp_path / "fed"),
        )
        portal.register_all(list(fleet))
        portal.rebuild_index()
        portal.execute(QUERY)  # journals batches the group commit leaves pending
        group = portal.shard_members(0)
        primed = portal.rebalance_capture(0)
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd))[1])
        staged = portal._backend.stage(portal._spec(0, group), primed)
        # checkpoint-1, wal-1, the directory, MANIFEST.tmp, the directory:
        # no final fsync of the WAL the wipe deletes, no registration log,
        # no rotation.
        assert len(calls) == 5
        data = tmp_path / "fed" / "shard-0"
        assert sorted(p.name for p in data.iterdir()) == [
            "MANIFEST.json",
            "checkpoint-1.db",
            "wal-1.log",
        ]
        assert (data / "wal-1.log").stat().st_size == 8  # the magic alone
        assert sorted(staged.export_cache(), key=_key) == sorted(primed, key=_key)
        portal._backend.commit({0: staged})
        portal.close()


def _key(entry):
    reading, fetched_at = entry
    return reading.sensor_id, fetched_at
