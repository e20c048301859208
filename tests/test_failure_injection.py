"""Failure injection and hostile-edge behaviour of the whole stack."""

import numpy as np
import pytest

from repro import (
    AvailabilityModel,
    COLRTree,
    COLRTreeConfig,
    GeoPoint,
    Rect,
    SensorNetwork,
    SensorRegistry,
    failpoints,
)

from tests.conftest import make_registry, make_tree


class TestDeadFleet:
    """Every sensor is unavailable: queries degrade, never crash."""

    @pytest.fixture
    def dead_tree(self):
        registry = make_registry(n=200, availability=0.0, seed=30)
        return make_tree(registry, network_seed=30)

    def test_sampled_query_returns_empty(self, dead_tree):
        answer = dead_tree.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=30
        )
        assert answer.probed_count == 0
        assert answer.result_weight == 0

    def test_probe_attempts_bounded_despite_oversampling(self, dead_tree):
        """1/a oversampling with a → 0 must not explode: attempts are
        bounded by the population."""
        for t in range(5):
            answer = dead_tree.query(
                Rect(0, 0, 100, 100), now=float(t), max_staleness=600.0, sample_size=30
            )
            assert answer.stats.sensors_probed <= 200

    def test_exact_query_probes_everything_once(self, dead_tree):
        answer = dead_tree.query(
            Rect(0, 0, 100, 100), now=10.0, max_staleness=600.0, sample_size=0
        )
        assert answer.stats.sensors_probed == 200
        assert answer.result_weight == 0

    def test_aggregate_on_empty_answer_raises_cleanly(self, dead_tree):
        answer = dead_tree.query(
            Rect(0, 0, 100, 100), now=20.0, max_staleness=600.0, sample_size=10
        )
        with pytest.raises(ValueError):
            answer.estimate("avg")


class TestDegenerateGeometry:
    def test_zero_area_query_region(self):
        registry = make_registry(n=100, seed=31)
        tree = make_tree(registry)
        sensor = registry.all()[0]
        point_rect = Rect(
            sensor.location.x, sensor.location.y, sensor.location.x, sensor.location.y
        )
        answer = tree.query(point_rect, now=0.0, max_staleness=600.0, sample_size=0)
        assert answer.result_weight >= 1

    def test_all_coincident_sensors(self):
        registry = SensorRegistry()
        for _ in range(50):
            registry.register(GeoPoint(5.0, 5.0), expiry_seconds=300.0)
        network = SensorNetwork(registry.all(), seed=1)
        tree = COLRTree(registry.all(), COLRTreeConfig(), network=network)
        answer = tree.query(Rect(0, 0, 10, 10), now=0.0, max_staleness=600.0, sample_size=10)
        assert answer.probed_count > 0

    def test_single_sensor_population(self):
        registry = SensorRegistry()
        registry.register(GeoPoint(1.0, 2.0), expiry_seconds=300.0)
        network = SensorNetwork(registry.all(), seed=1)
        tree = COLRTree(registry.all(), COLRTreeConfig(), network=network)
        answer = tree.query(Rect(0, 0, 5, 5), now=0.0, max_staleness=600.0, sample_size=5)
        assert answer.probed_count == 1

    def test_query_far_outside_domain(self):
        tree = make_tree(make_registry(n=100, seed=32))
        answer = tree.query(
            Rect(1000, 1000, 2000, 2000), now=0.0, max_staleness=600.0, sample_size=10
        )
        assert answer.result_weight == 0
        assert answer.stats.sensors_probed == 0


class TestHostileParameters:
    def test_zero_staleness_never_uses_cache(self):
        tree = make_tree(make_registry(n=200, seed=33))
        region = Rect(0, 0, 100, 100)
        tree.query(region, now=0.0, max_staleness=600.0, sample_size=0)
        answer = tree.query(region, now=1.0, max_staleness=0.0, sample_size=0)
        # Nothing cached at t=0 is fresh within a 0-second bound at t=1.
        assert len(answer.cached_readings) == 0
        assert answer.stats.sensors_probed > 0

    def test_sample_size_exceeding_population(self):
        registry = make_registry(n=50, seed=34)
        tree = make_tree(registry)
        answer = tree.query(
            Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=10_000
        )
        assert answer.probed_count == 50

    def test_zero_cache_capacity(self):
        registry = make_registry(n=100, seed=35)
        tree = make_tree(registry, COLRTreeConfig(cache_capacity=0))
        region = Rect(0, 0, 100, 100)
        a1 = tree.query(region, now=0.0, max_staleness=600.0, sample_size=0)
        assert tree.cached_reading_count == 0
        a2 = tree.query(region, now=1.0, max_staleness=600.0, sample_size=0)
        # No cache: both queries probe everything.
        assert a2.stats.sensors_probed == a1.stats.sensors_probed

    def test_probe_unknown_sensor_raises(self):
        registry = make_registry(n=10, seed=36)
        network = SensorNetwork(registry.all(), seed=1)
        with pytest.raises(KeyError):
            network.probe([999], now=0.0)


class TestRebalanceFaults:
    """Hostile edges of live migration on an in-memory federation: a
    down shard aborts before mutation, and a mid-step coordinator
    failure leaves the un-flipped membership fully consistent."""

    def _fed(self, n=120, n_shards=3, seed=40):
        from repro.federation import FederatedPortal

        rng = np.random.default_rng(seed)
        fed = FederatedPortal(n_shards=n_shards, max_sensors_per_query=None)
        for _ in range(n):
            fed.register_sensor(
                GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
                expiry_seconds=600.0,
                availability=1.0,
            )
        fed.rebuild_index()
        return fed

    def test_migration_to_down_shard_aborts_cleanly(self):
        from repro.rebalance import MigrationAborted, Rebalancer, ShardMover

        fed = self._fed()
        fed.kill_shard(1)
        mover = ShardMover(fed)
        movers = [s.sensor_id for s in fed.shard_members(0)[:5]]
        version = fed.directory.version
        with pytest.raises(MigrationAborted):
            mover.move(movers, src=0, dst=1)
        with pytest.raises(MigrationAborted):
            mover.move(
                [s.sensor_id for s in fed.shard_members(1)[:5]], src=1, dst=0
            )
        assert fed.directory.version == version
        fed.revive_shard(1)
        Rebalancer(fed).verify_invariants()

    def test_policy_routes_around_a_dead_shard(self):
        from repro.portal import SensorQuery
        from repro.rebalance import Rebalancer

        fed = self._fed()
        # Skew the alive fleet, then take shard 2 down: the policy must
        # rebalance between the alive shards only, leaving the dead
        # shard's membership untouched, while queries degrade to
        # partial instead of crashing.
        rebalancer = Rebalancer(fed)
        rebalancer.mover.move(
            [s.sensor_id for s in fed.shard_members(0)[:30]], src=0, dst=1
        )
        fed.kill_shard(2)
        dead_members = sorted(s.sensor_id for s in fed.shard_members(2))
        reports = rebalancer.run(max_steps=4)
        assert all(r.op not in ("aborted",) for r in reports)
        assert sorted(s.sensor_id for s in fed.shard_members(2)) == dead_members
        result = fed.execute(
            SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0)
        )
        assert result.partial and 2 in result.failed_shards
        fed.revive_shard(2)

    def test_shard_dying_mid_step_surfaces_as_aborted_report(self):
        from repro.rebalance import MigrationAborted, Rebalancer

        fed = self._fed()
        rebalancer = Rebalancer(fed)
        # Skew so the policy plans a move, then inject the race where
        # the shard dies between planning and capture: the step reports
        # "aborted" instead of raising, and nothing is mutated.
        rebalancer.mover.move(
            [s.sensor_id for s in fed.shard_members(0)[:30]], src=0, dst=1
        )

        def die(point: str) -> None:
            if point == "mover.captured":
                raise MigrationAborted("shard lost mid-step")

        version = fed.directory.version
        with failpoints.armed(die):
            reports = rebalancer.run(max_steps=4)
        assert [r.op for r in reports] == ["aborted"]
        assert fed.directory.version == version
        rebalancer.verify_invariants()

    def test_mid_step_failure_leaves_old_membership_consistent(self):
        from repro.portal import SensorQuery
        from repro.rebalance import Rebalancer, ShardMover

        class _Boom(RuntimeError):
            pass

        fed = self._fed()
        before = {
            sid: sorted(s.sensor_id for s in fed.shard_members(sid))
            for sid in range(3)
        }

        def crash(point: str) -> None:
            if point == "mover.prepared":
                raise _Boom

        mover = ShardMover(fed)
        movers = [s.sensor_id for s in fed.shard_members(0)[:8]]
        with pytest.raises(_Boom), failpoints.armed(crash):
            mover.move(movers, src=0, dst=1)
        after = {
            sid: sorted(s.sensor_id for s in fed.shard_members(sid))
            for sid in range(3)
        }
        assert after == before
        result = fed.execute(
            SensorQuery(region=Rect(0, 0, 100, 100), staleness_seconds=600.0)
        )
        assert result.result_weight == len(fed.registry)
        Rebalancer(fed).verify_invariants()


class TestPartialFleetFailure:
    def test_mixed_availability_fleet(self):
        """Half the fleet is dead; oversampling should still deliver a
        reasonable fraction of the target from the living half."""
        rng = np.random.default_rng(37)
        registry = SensorRegistry()
        for i in range(400):
            registry.register(
                GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
                expiry_seconds=300.0,
                availability=0.0 if i % 2 == 0 else 1.0,
            )
        model = AvailabilityModel()
        network = SensorNetwork(registry.all(), availability_model=model, seed=2)
        tree = COLRTree(
            registry.all(),
            COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
            network=network,
            availability_model=model,
        )
        # Warm availability history.
        for t in range(4):
            tree.query(
                Rect(0, 0, 100, 100), now=float(t), max_staleness=0.5, sample_size=150
            )
        answer = tree.query(
            Rect(0, 0, 100, 100), now=10.0, max_staleness=0.5, sample_size=40
        )
        assert answer.probed_count >= 20
