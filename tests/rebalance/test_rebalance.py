"""Core mechanics of live rebalancing: bounded moves, split/merge with
dense ids, churn absorption, the two-phase flip's conservation, warm
(probe-free) migration, and the policy loop's triggers."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.federation import FederatedPortal
from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.frontdoor.cache import TILE_EXTENT_DEGREES
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cell_of_point
from repro.portal import SensorQuery
from repro.rebalance import (
    JoinSpec,
    MigrationAborted,
    RebalanceConfig,
    Rebalancer,
    ShardMover,
)
from repro.rebalance.rebalancer import SPLIT_FACTOR
from repro.storage import StorageConfig

from tests.rebalance.conftest import (
    STALENESS,
    WHOLE,
    distinct_ids,
    make_skewed_fed,
    make_uniform_fed,
    total_probes,
)

EXACT = SensorQuery(region=WHOLE, staleness_seconds=STALENESS)


class TestMove:
    def test_move_updates_directory_and_groups(self):
        fed = make_uniform_fed()
        mover = ShardMover(fed)
        before = [fed.directory.entry(i).weight for i in range(4)]
        version = fed.directory.version
        movers = [s.sensor_id for s in fed.shard_members(0)[:5]]
        moved = mover.move(movers, src=0, dst=1)
        assert sorted(s.sensor_id for s in moved) == sorted(movers)
        assert fed.directory.entry(0).weight == before[0] - 5
        assert fed.directory.entry(1).weight == before[1] + 5
        assert fed.directory.version == version + 1
        owned = {s.sensor_id for s in fed.shard_members(1)}
        assert set(movers) <= owned
        Rebalancer(fed).verify_invariants()

    def test_move_is_probe_free_for_everyone(self):
        """After a warm fleet migrates a batch, the next exact query
        probes nothing: the moved sensors AND the restaged shards'
        stay-put sensors all arrive with their warm cache entries.
        (Needs the slot cache on — the default config — since shipped
        warm state IS the slot-cache entries.)"""
        fed = FederatedPortal(n_shards=4, max_sensors_per_query=None)
        rng = np.random.default_rng(3)
        for x, y in rng.random((240, 2)) * 100.0:
            fed.register_sensor(
                GeoPoint(float(x), float(y)),
                expiry_seconds=STALENESS,
                availability=1.0,
            )
        fed.rebuild_index()
        fed.execute(EXACT)  # warm every shard
        mover = ShardMover(fed)
        movers = [s.sensor_id for s in fed.shard_members(0)[:8]]
        mover.move(movers, src=0, dst=2)
        # Restaged shards carry fresh probe counters; sample after the
        # move so the delta is exactly what the next query costs.
        before = total_probes(fed)
        result = fed.execute(EXACT)
        assert total_probes(fed) - before == 0
        assert result.result_weight == len(fed.registry)

    def test_move_validation(self):
        fed = make_uniform_fed(n=60, n_shards=2)
        mover = ShardMover(fed)
        members = [s.sensor_id for s in fed.shard_members(0)]
        with pytest.raises(ValueError, match="must differ"):
            mover.move(members[:2], src=0, dst=0)
        with pytest.raises(ValueError, match="not owned"):
            mover.move([10**9], src=0, dst=1)
        with pytest.raises(ValueError, match="empty"):
            mover.move(members, src=0, dst=1)
        assert mover.move([], src=0, dst=1) == []

    def test_move_to_killed_shard_aborts_without_mutation(self):
        fed = make_uniform_fed()
        mover = ShardMover(fed)
        version = fed.directory.version
        weights = [fed.directory.entry(i).weight for i in range(4)]
        fed.kill_shard(2)
        movers = [s.sensor_id for s in fed.shard_members(0)[:4]]
        with pytest.raises(MigrationAborted):
            mover.move(movers, src=0, dst=2)
        assert fed.directory.version == version
        assert [fed.directory.entry(i).weight for i in range(4)] == weights
        fed.revive_shard(2)
        Rebalancer(fed).verify_invariants()

    def test_aborted_churn_leaves_the_registry_as_it_was(self):
        """A join or leave refused by a killed shard registers and
        withdraws nothing: the shard groups still partition the
        registry, so a later leave may name any registered sensor."""
        fed = make_uniform_fed()
        mover = ShardMover(fed)
        registered = sorted(s.sensor_id for s in fed.registry)
        for i in range(4):
            fed.kill_shard(i)
        with pytest.raises(MigrationAborted):
            mover.absorb_joins([JoinSpec(GeoPoint(5.0, 5.0), 600.0)])
        with pytest.raises(MigrationAborted):
            mover.absorb_leaves(registered[:3])
        assert sorted(s.sensor_id for s in fed.registry) == registered
        for i in range(4):
            fed.revive_shard(i)
        Rebalancer(fed).verify_invariants()
        assert mover.absorb_leaves(registered[:3]) == registered[:3]
        Rebalancer(fed).verify_invariants()


class TestSplitMerge:
    def test_split_appends_dense_id_and_halves_population(self):
        fed = make_uniform_fed()
        weight = fed.directory.entry(1).weight
        new_id = ShardMover(fed).split(1)
        assert new_id == 4 and len(fed.directory) == 5
        halves = (fed.directory.entry(1).weight, fed.directory.entry(4).weight)
        assert sum(halves) == weight
        assert abs(halves[0] - halves[1]) <= 1
        Rebalancer(fed).verify_invariants()

    def test_merge_swap_remove_keeps_ids_dense(self):
        fed = make_uniform_fed()
        weights = [fed.directory.entry(i).weight for i in range(4)]
        last_ids = {s.sensor_id for s in fed.shard_members(3)}
        kept = ShardMover(fed).merge(0, 2)
        assert kept == 0 and len(fed.directory) == 3
        assert fed.directory.entry(0).weight == weights[0] + weights[2]
        # The old last shard renumbered into the vacated slot 2.
        assert {s.sensor_id for s in fed.shard_members(2)} == last_ids
        Rebalancer(fed).verify_invariants()

    def test_split_then_merge_conserves_the_fleet(self):
        fed = make_uniform_fed()
        new_id = ShardMover(fed).split(0)
        ShardMover(fed).merge(0, new_id)
        ids, raw = distinct_ids(fed.execute(EXACT))
        assert len(ids) == len(fed.registry) and raw == len(ids)
        Rebalancer(fed).verify_invariants()

    def test_split_single_sensor_shard_rejected(self):
        fed = make_uniform_fed(n=40, n_shards=2)
        mover = ShardMover(fed)
        keep = [s.sensor_id for s in fed.shard_members(0)[:1]]
        mover.move(
            [s.sensor_id for s in fed.shard_members(0) if s.sensor_id not in keep],
            src=0,
            dst=1,
        )
        with pytest.raises(ValueError, match="fewer than 2"):
            mover.split(0)


class TestJoinsLeaves:
    def test_joins_land_in_the_containing_shard(self):
        fed = make_uniform_fed()
        mover = ShardMover(fed)
        target = fed.directory.entry(1).mbr
        spot = GeoPoint(
            (target.min_x + target.max_x) / 2, (target.min_y + target.max_y) / 2
        )
        weight = fed.directory.entry(1).weight
        joined = mover.absorb_joins([JoinSpec(location=spot, expiry_seconds=300.0)])
        assert len(joined) == 1
        owner = next(
            sid
            for sid in range(len(fed.directory))
            if joined[0].sensor_id in {s.sensor_id for s in fed.shard_members(sid)}
        )
        assert fed.directory.entry(owner).mbr.contains_point(spot)
        if owner == 1:
            assert fed.directory.entry(1).weight == weight + 1
        Rebalancer(fed).verify_invariants()

    def test_leaves_compact_an_emptied_shard(self):
        fed = make_uniform_fed()
        mover = ShardMover(fed)
        emptied = [s.sensor_id for s in fed.shard_members(1)]
        survivors = len(fed.registry) - len(emptied)
        mover.absorb_leaves(emptied)
        assert len(fed.directory) == 3
        assert len(fed.registry) == survivors
        ids, raw = distinct_ids(fed.execute(EXACT))
        assert len(ids) == survivors and raw == len(ids)
        assert not ids & set(emptied)
        Rebalancer(fed).verify_invariants()

    def test_leaving_the_whole_fleet_rejected(self):
        fed = make_uniform_fed(n=30, n_shards=2)
        everyone = [s.sensor_id for s in fed.registry]
        with pytest.raises(ValueError, match="empty the whole fleet"):
            ShardMover(fed).absorb_leaves(everyone)


class TestTwoPhaseFlip:
    def test_conservation_exact_at_every_phase(self):
        """A query racing the flip sees old-or-new ownership, never
        both/neither: the exact answer covers the whole fleet with no
        duplicates at ``prepared`` (staged, pre-flip) and ``committed``."""
        fed = make_skewed_fed()
        fleet = len(fed.registry)
        phases: list[str] = []

        def on_phase(phase: str) -> None:
            phases.append(phase)
            result = fed.execute(EXACT)
            ids, raw = distinct_ids(result)
            assert len(ids) == fleet, f"{phase}: saw {len(ids)}/{fleet}"
            assert raw == len(ids), f"{phase}: duplicates"
            assert not result.partial

        rebalancer = Rebalancer(
            fed, RebalanceConfig(max_moves_per_step=32), on_phase=on_phase
        )
        reports = rebalancer.run(max_steps=6)
        assert reports and all(r.op != "aborted" for r in reports)
        assert "prepared" in phases and "committed" in phases

    def test_directory_version_bumps_once_per_step(self):
        fed = make_skewed_fed()
        rebalancer = Rebalancer(fed, RebalanceConfig(max_moves_per_step=32))
        version = fed.directory.version
        report = rebalancer.step()
        assert report.op not in ("noop", "aborted")
        assert fed.directory.version == version + 1
        assert report.directory_version == version + 1


class TestRebalancerPolicy:
    def test_skewed_fleet_converges_in_bounded_steps(self):
        fed = make_skewed_fed()
        rebalancer = Rebalancer(fed, RebalanceConfig(max_moves_per_step=32))
        initial = rebalancer.imbalance()
        assert initial > rebalancer.config.imbalance_tolerance
        reports = rebalancer.run(max_steps=24)
        assert 0 < len(reports) <= 24
        assert rebalancer.imbalance() < initial
        assert rebalancer.imbalance() <= rebalancer.config.imbalance_tolerance + 0.05
        rebalancer.verify_invariants()

    def test_balanced_fleet_is_a_noop(self):
        fed = make_uniform_fed()
        report = Rebalancer(fed).step()
        assert report.op == "noop" and report.moved == 0

    def test_population_split_trigger(self):
        # Eight strips over the skewed fleet: the crowded low-x strip
        # holds about 35 % of it, well past twice the mean share.
        fed = make_skewed_fed(n=400, n_shards=8, seed=5)
        weights = [fed.directory.entry(i).weight for i in range(8)]
        heavy = max(range(8), key=lambda i: weights[i])
        assert weights[heavy] > SPLIT_FACTOR * sum(weights) / 8
        rebalancer = Rebalancer(fed, RebalanceConfig(max_moves_per_step=8))
        plan = rebalancer.plan()
        assert plan is not None and plan.op == "split"
        assert plan.shards == (heavy,)

    def test_merge_trigger_for_a_starved_shard(self):
        fed = make_uniform_fed()
        mover = ShardMover(fed)
        group = fed.shard_members(3)
        mover.move([s.sensor_id for s in group[:-1]], src=3, dst=0)
        # Shard 0 now holds 119 of 240: still under the split trigger.
        mean = fed.directory.total_weight() / len(fed.directory)
        assert fed.directory.entry(0).weight <= SPLIT_FACTOR * mean
        rebalancer = Rebalancer(fed, RebalanceConfig(max_moves_per_step=4))
        plan = rebalancer.plan()
        assert plan is not None and plan.op == "merge"
        assert plan.shards[0] == 3


class TestFrontDoorIntegration:
    def test_moved_sensor_tiles_invalidated_cell_precise(self):
        fed = make_uniform_fed()
        door = FrontDoor(
            fed,
            FrontDoorConfig(admission=AdmissionConfig(enabled=False)),
        )
        assert door._on_rebalance in fed.rebalance_listeners
        viewport = SensorQuery(
            region=Rect(0.0, 0.0, 50.0, 50.0), staleness_seconds=STALENESS
        )
        far = SensorQuery(
            region=Rect(60.0, 60.0, 90.0, 90.0), staleness_seconds=STALENESS
        )
        door.execute(viewport)
        door.execute(far)
        assert door.execute(viewport).cache_hit
        assert door.execute(far).cache_hit
        # Move sensors that sit inside the first viewport only.
        movers = [
            s.sensor_id
            for s in fed.shard_members(0)
            if viewport.region.contains_point(s.location)
        ][:4]
        src_ids = {s.sensor_id for s in fed.shard_members(0)}
        dst = next(i for i in range(1, 4))
        ShardMover(fed).move(movers, src=0, dst=dst)
        # The untouched far viewport stays warm; the touched one refills
        # from the post-move portal and still answers correctly.
        assert door.execute(far).cache_hit
        refreshed = door.execute(viewport)
        in_region = sum(
            1
            for s in fed.registry
            if viewport.region.contains_point(s.location)
        )
        assert refreshed.result.result_weight == in_region
        assert src_ids - set(movers) == {
            s.sensor_id for s in fed.shard_members(0)
        }

    @pytest.mark.parametrize("shape", ["rectangle", "polygon"])
    def test_withdrawn_sensor_leaves_the_cached_viewport(self, shape):
        """A leaver is in no final group, so it is not among the moved
        sensors; the front door must hear about it all the same, or
        L1/L2 keep serving its last reading until the slot window
        turns.  A polygon's boundary tile crops through its fill's own
        view, which still places the leaver: only write-delta
        invalidation keeps it out of the recomposed polygon."""
        fed = make_uniform_fed()
        door = FrontDoor(
            fed,
            FrontDoorConfig(admission=AdmissionConfig(enabled=False)),
        )
        wide = Rect(0.0, 0.0, 50.0, 50.0)
        leaver, where = next(
            (s.sensor_id, s.location)
            for s in fed.registry
            if wide.contains_point(s.location)
        )
        region = wide
        if shape == "polygon":
            # A triangle just wider than the leaver's corner: its tile
            # straddles two edges, so the crop decides the leaver.
            x, y = where.x - 1e-3, where.y - 1e-3
            region = Polygon(
                [GeoPoint(x, y), GeoPoint(x + 2.0, y), GeoPoint(x, y + 2.0)]
            )
        viewport = SensorQuery(region=region, staleness_seconds=STALENESS)
        if shape == "polygon":
            tile = cell_of_point(where, TILE_EXTENT_DEGREES)
            assert (tile, False) in door.cache.raster(viewport)
        far = SensorQuery(
            region=Rect(60.0, 60.0, 90.0, 90.0), staleness_seconds=STALENESS
        )
        filled = door.execute(viewport)
        door.execute(far)
        assert door.execute(viewport).cache_hit
        before, _ = distinct_ids(filled.result)
        assert leaver in before
        dropped = door.cache.stats.invalidated_write
        ShardMover(fed).absorb_leaves([leaver])
        assert door.cache.stats.invalidated_write > dropped
        again = door.execute(viewport)
        # The rectangle covers too many tiles to compose: the portal
        # answers it again.  The triangle's leaver was alone in its
        # tile, which after the leave holds no sensor and composes
        # empty: the recomposition is an L2 hit, without the leaver.
        assert again.served_from == ("portal" if shape == "rectangle" else "l2")
        assert distinct_ids(again.result)[0] == before - {leaver}
        # Cell-precise, like a move: the far viewport stays warm.
        assert door.execute(far).cache_hit


class TestReplacedShardsAreFreed:
    """A restage drops the replaced shard portal; its trees' cycles
    (node ``parent`` links, the WAL sink bound to the portal) are broken
    at the drop, so it is freed there and not by a later collection."""

    def durable_fed(self, tmp_path) -> FederatedPortal:
        fed = FederatedPortal(
            n_shards=2,
            max_sensors_per_query=None,
            storage=StorageConfig(data_dir=tmp_path / "fed", fsync_enabled=False),
        )
        rng = np.random.default_rng(4)
        for x, y in rng.uniform(0.0, 100.0, (300, 2)):
            fed.register_sensor(GeoPoint(float(x), float(y)), expiry_seconds=STALENESS)
        fed.rebuild_index()
        return fed

    def watch(self, fed) -> list[weakref.ref]:
        refs = []
        for shard in fed.shards():
            tree = shard.tree("generic")
            refs += [weakref.ref(shard), weakref.ref(tree), weakref.ref(tree.root)]
        return refs

    def test_absorb_joins_frees_the_replaced_trees_without_the_collector(
        self, tmp_path
    ):
        fed = self.durable_fed(tmp_path)
        door = FrontDoor(fed, FrontDoorConfig(admission=AdmissionConfig(enabled=False)))
        near = SensorQuery(region=Rect(0.0, 0.0, 60.0, 60.0), staleness_seconds=STALENESS)
        far = SensorQuery(region=Rect(97.0, 97.0, 99.0, 99.0), staleness_seconds=STALENESS)
        held = door.execute(near).result  # a GroupView over the old trees' answers
        door.execute(far)
        replaced = self.watch(fed)
        gc.collect()
        gc.disable()
        try:
            # One join inside each shard's box: both shards restage.
            ShardMover(fed).absorb_joins(
                [
                    JoinSpec(location=e.mbr.center, expiry_seconds=STALENESS)
                    for e in fed.directory.entries()
                ]
            )
            assert [ref() for ref in replaced] == [None] * 6
        finally:
            gc.enable()
        # What was made before the step holds the sensor table and
        # readings, never nodes: it still resolves.
        assert len(held.groups) == held.result_weight > 0
        assert {g.readings[0].sensor_id for g in held.groups} == distinct_ids(held)[0]
        assert door.execute(far).cache_hit
        assert door.execute(near).result.result_weight == held.result_weight + 1
        fed.close()

    def test_revive_frees_the_crashed_portal(self, tmp_path):
        fed = self.durable_fed(tmp_path)
        fed.execute(EXACT)
        crashed = self.watch(fed)[:3]
        gc.collect()
        gc.disable()
        try:
            fed.kill_shard(0)
            fed.revive_shard(0)
            assert [ref() for ref in crashed] == [None] * 3
        finally:
            gc.enable()
        assert fed.execute(EXACT).result_weight == 300
        fed.close()

    def test_rebuild_frees_every_replaced_portal(self, tmp_path):
        fed = self.durable_fed(tmp_path)
        fed.execute(EXACT)
        replaced = self.watch(fed)
        gc.collect()
        gc.disable()
        try:
            fed.rebuild_index()
            assert [ref() for ref in replaced] == [None] * 6
        finally:
            gc.enable()
        assert fed.execute(EXACT).result_weight == 300
        fed.close()
