"""Fault injection for live migration: worker SIGKILL mid-step and
coordinator crashes between the two-phase flip's phases.

The contract under any fault: **no orphaned and no duplicated
sensors**.  A crash before ``prepared`` rolls back (the before-map
wins), from ``prepared`` on it rolls forward (the after-map wins), and
either way :func:`repro.rebalance.journal.resolve_pending` hands back
one consistent membership that a ``FixedPartitioner`` rebuild turns
into a serving federation covering exactly the fleet.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro import failpoints
from repro.core.config import COLRTreeConfig
from repro.federation import FederatedPortal, FederationConfig
from repro.federation.partitioner import FixedPartitioner
from repro.geometry import GeoPoint
from repro.portal import SensorQuery
from repro.rebalance import Rebalancer, ShardMover, resolve_pending
from repro.rebalance.journal import JOURNAL_NAME
from repro.sensors.registry import SensorRegistry
from repro.storage import StorageConfig

from tests.rebalance.conftest import EXTENT, STALENESS, WHOLE, distinct_ids

EXACT = SensorQuery(region=WHOLE, staleness_seconds=STALENESS)


class _Crash(RuntimeError):
    """The injected coordinator crash."""


def _crash_at(point: str):
    def hook(reached: str) -> None:
        if reached == point:
            raise _Crash(point)

    return failpoints.armed(hook)


def _fleet(n: int = 60, seed: int = 3):
    rng = np.random.default_rng(seed)
    registry = SensorRegistry()
    return [
        registry.register(
            GeoPoint(float(rng.uniform(0, EXTENT)), float(rng.uniform(0, EXTENT))),
            expiry_seconds=STALENESS,
            availability=1.0,
        )
        for _ in range(n)
    ]


def _durable_fed(fleet, tmp_path, n_shards: int = 3, **kwargs) -> FederatedPortal:
    fed = FederatedPortal(
        n_shards=n_shards,
        config=COLRTreeConfig(caching_enabled=False, oversampling_enabled=False),
        max_sensors_per_query=None,
        network_options={"latency_jitter": 0.0},
        storage=StorageConfig(data_dir=tmp_path / "fed", fsync_enabled=False),
        **kwargs,
    )
    fed.register_all(list(fleet))
    fed.rebuild_index()
    return fed


def _assert_fleet_conserved(fed, fleet) -> None:
    ids, raw = distinct_ids(fed.execute(EXACT))
    assert ids == {s.sensor_id for s in fleet}, "orphaned or phantom sensors"
    assert raw == len(ids), "duplicated sensors"
    Rebalancer(fed).verify_invariants()


class TestCoordinatorCrash:
    """Crash the coordinator between phases of a durable migration,
    recover via the journal, and rebuild from the resolved membership."""

    def test_crash_before_intent_leaves_no_journal(self, tmp_path):
        fleet = _fleet()
        fed = _durable_fed(fleet, tmp_path)
        mover = ShardMover(fed)
        movers = [s.sensor_id for s in fed.shard_members(0)[:5]]
        with pytest.raises(_Crash), _crash_at("mover.captured"):
            mover.move(movers, src=0, dst=1)
        # Nothing durable was touched yet: no journal, nothing pending.
        storage = StorageConfig(data_dir=tmp_path / "fed", fsync_enabled=False)
        assert resolve_pending(storage) is None
        # The in-memory coordinator is un-flipped and fully consistent.
        _assert_fleet_conserved(fed, fleet)
        fed.close()

    def test_crash_at_intent_rolls_back(self, tmp_path):
        fleet = _fleet()
        fed = _durable_fed(fleet, tmp_path)
        before_members = {
            sid: sorted(s.sensor_id for s in fed.shard_members(sid))
            for sid in range(3)
        }
        mover = ShardMover(fed)
        movers = [s.sensor_id for s in fed.shard_members(0)[:5]]
        with pytest.raises(_Crash), _crash_at("mover.intent"):
            mover.move(movers, src=0, dst=1)
        del fed, mover  # the coordinator is gone; recovery is disk-only

        storage = StorageConfig(data_dir=tmp_path / "fed", fsync_enabled=False)
        resolution = resolve_pending(storage)
        assert resolution is not None
        assert resolution.action == "rolled_back"
        resolved = {
            sid: sorted(ids) for sid, ids in resolution.membership.items()
        }
        assert resolved == before_members
        assert not (tmp_path / "fed" / JOURNAL_NAME).exists()

        rebuilt = FederatedPortal(
            partitioner=FixedPartitioner(
                resolution.assignment, n_shards=resolution.n_shards
            ),
            config=COLRTreeConfig(
                caching_enabled=False, oversampling_enabled=False
            ),
            max_sensors_per_query=None,
            network_options={"latency_jitter": 0.0},
            storage=storage,
        )
        rebuilt.register_all(list(fleet))
        rebuilt.rebuild_index()
        _assert_fleet_conserved(rebuilt, fleet)
        rebuilt.close()

    def test_crash_between_prepare_and_commit_rolls_forward(self, tmp_path):
        fleet = _fleet()
        fed = _durable_fed(fleet, tmp_path)
        mover = ShardMover(fed)
        movers = [s.sensor_id for s in fed.shard_members(0)[:5]]
        with pytest.raises(_Crash), _crash_at("mover.prepared"):
            mover.move(movers, src=0, dst=1)
        del fed, mover

        storage = StorageConfig(data_dir=tmp_path / "fed", fsync_enabled=False)
        resolution = resolve_pending(storage)
        assert resolution is not None
        assert resolution.action == "rolled_forward"
        # The after-map owns the movers at their destination.
        assert set(movers) <= set(resolution.membership[1])
        assert not set(movers) & set(resolution.membership[0])
        assert not (tmp_path / "fed" / JOURNAL_NAME).exists()

        rebuilt = FederatedPortal(
            partitioner=FixedPartitioner(
                resolution.assignment, n_shards=resolution.n_shards
            ),
            config=COLRTreeConfig(
                caching_enabled=False, oversampling_enabled=False
            ),
            max_sensors_per_query=None,
            network_options={"latency_jitter": 0.0},
            storage=storage,
        )
        rebuilt.register_all(list(fleet))
        rebuilt.rebuild_index()
        owned_by_dst = {s.sensor_id for s in rebuilt.shard_members(1)}
        assert set(movers) <= owned_by_dst
        _assert_fleet_conserved(rebuilt, fleet)
        rebuilt.close()

    def test_crashed_split_rolls_forward_to_the_new_shard_count(self, tmp_path):
        fleet = _fleet(n=80, seed=5)
        fed = _durable_fed(fleet, tmp_path)
        mover = ShardMover(fed)
        with pytest.raises(_Crash), _crash_at("mover.prepared"):
            mover.split(0)
        del fed, mover
        storage = StorageConfig(data_dir=tmp_path / "fed", fsync_enabled=False)
        resolution = resolve_pending(storage)
        assert resolution is not None
        assert resolution.action == "rolled_forward"
        assert resolution.n_shards == 4
        rebuilt = FederatedPortal(
            partitioner=FixedPartitioner(
                resolution.assignment, n_shards=resolution.n_shards
            ),
            config=COLRTreeConfig(
                caching_enabled=False, oversampling_enabled=False
            ),
            max_sensors_per_query=None,
            network_options={"latency_jitter": 0.0},
            storage=storage,
        )
        rebuilt.register_all(list(fleet))
        rebuilt.rebuild_index()
        assert len(rebuilt.directory) == 4
        _assert_fleet_conserved(rebuilt, fleet)
        rebuilt.close()


def _sigkill(pid: int) -> None:
    """SIGKILL a worker and wait for it through ``multiprocessing``, so
    the module records its exit.  An ``os.waitpid`` would reap it behind
    the module's back: its handle would then stay in
    ``active_children()`` with no exit code for the rest of the run."""
    (process,) = [p for p in multiprocessing.active_children() if p.pid == pid]
    os.kill(pid, signal.SIGKILL)
    process.join()


class TestWorkerSigkill:
    """SIGKILL a target shard's worker process mid-migration: the
    membership change still lands, the dead worker respawns fresh, and
    ownership stays exact."""

    def _process_fed(self, n: int = 200, n_shards: int = 3) -> FederatedPortal:
        rng = np.random.default_rng(11)
        fed = FederatedPortal(
            n_shards=n_shards,
            max_sensors_per_query=None,
            federation=FederationConfig(execution="process"),
        )
        for _ in range(n):
            fed.register_sensor(
                GeoPoint(
                    float(rng.uniform(0, EXTENT)), float(rng.uniform(0, EXTENT))
                ),
                expiry_seconds=STALENESS,
                availability=1.0,
            )
        fed.rebuild_index()
        return fed

    def test_sigkill_target_mid_migration(self):
        with self._process_fed() as fed:
            fed.execute(EXACT)
            dst_pid = fed.worker_pid(1)
            bystander_pid = fed.worker_pid(2)
            assert dst_pid is not None and bystander_pid is not None

            def kill_dst(point: str) -> None:
                if point == "mover.captured":
                    _sigkill(dst_pid)

            mover = ShardMover(fed)
            movers = [s.sensor_id for s in fed.shard_members(0)[:6]]
            with failpoints.armed(kill_dst):
                moved = mover.move(movers, src=0, dst=1)
            assert sorted(s.sensor_id for s in moved) == sorted(movers)
            # The affected shards respawned; the bystander never cycled.
            assert fed.worker_pid(1) not in (None, dst_pid)
            assert fed.worker_pid(2) == bystander_pid
            result = fed.execute(EXACT)
            assert result.result_weight == len(fed.registry)
            assert not result.partial
            owned = {s.sensor_id for s in fed.shard_members(1)}
            assert set(movers) <= owned
            Rebalancer(fed).verify_invariants()

    def test_sigkill_source_mid_migration(self):
        """Killing the *source* worker after capture must not lose the
        movers: their warm entries were already exported."""
        with self._process_fed() as fed:
            fed.execute(EXACT)
            src_pid = fed.worker_pid(0)
            assert src_pid is not None

            def kill_src(point: str) -> None:
                if point == "mover.captured":
                    _sigkill(src_pid)

            mover = ShardMover(fed)
            movers = [s.sensor_id for s in fed.shard_members(0)[:6]]
            with failpoints.armed(kill_src):
                mover.move(movers, src=0, dst=2)
            result = fed.execute(EXACT)
            assert result.result_weight == len(fed.registry)
            assert not result.partial
            Rebalancer(fed).verify_invariants()
