"""FederatedPortal: scatter-gather behavior, parity, and degradation."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.federation import (
    FederatedPortal,
    FederationConfig,
    GridPartitioner,
    KMeansPartitioner,
)
from repro.federation.federated import RETRY_BACKOFF_BASE, RETRY_BACKOFF_MULTIPLIER
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import ContinuousQueryManager, SensorMapPortal, SensorQuery


def _register_fleet(portal, n=240, seed=5, types=("temperature", "humidity")):
    rng = np.random.default_rng(seed)
    for i, (x, y) in enumerate(rng.random((n, 2)) * 100):
        portal.register_sensor(
            GeoPoint(float(x), float(y)),
            expiry_seconds=600.0,
            sensor_type=types[i % len(types)],
        )
    portal.rebuild_index()
    return portal


def _federation(n_shards=4, n=240, seed=5, **kwargs):
    kwargs.setdefault("max_sensors_per_query", None)
    kwargs.setdefault("network_options", {"latency_jitter": 0.0})
    return _register_fleet(FederatedPortal(n_shards=n_shards, **kwargs), n=n, seed=seed)


def _unsharded(n=240, seed=5, **kwargs):
    kwargs.setdefault("max_sensors_per_query", None)
    kwargs.setdefault("network_options", {"latency_jitter": 0.0})
    return _register_fleet(SensorMapPortal(**kwargs), n=n, seed=seed)


WIDE = SensorQuery(region=Rect(0.0, 0.0, 100.0, 100.0), staleness_seconds=300.0)


class TestSingleShardParity:
    def test_execute_matches_unsharded_bit_for_bit(self):
        plain = _unsharded()
        fed = _federation(n_shards=1)
        queries = [
            WIDE,
            SensorQuery(region=Rect(20, 20, 70, 70), staleness_seconds=120.0),
            SensorQuery(
                region=Rect(20, 20, 70, 70), staleness_seconds=120.0, sample_size=30
            ),
            SensorQuery(
                region=Rect(10, 40, 90, 95),
                staleness_seconds=120.0,
                sensor_type="humidity",
            ),
        ]
        for tick in range(3):
            for query in queries:
                a = plain.execute(query)
                b = fed.execute(query)
                assert a.answers == b.answers
                assert a.groups == b.groups
                assert a.result_weight == b.result_weight
                assert a.processing_seconds == b.processing_seconds
                assert a.collection_seconds == b.collection_seconds
                assert not b.partial
            plain.clock.advance(45.0)
            fed.clock.advance(45.0)
        assert plain.network.stats == fed.shard(0).network.stats

    def test_bench_parity_gate(self):
        """The benchmark's own gate (exact/sampled x rect/polygon x
        cold/warm x reliable/flaky/transport, single + batch paths) at
        test scale."""
        from repro.bench.federation import check_single_shard_parity

        assert check_single_shard_parity(600, seed=0) == 72


class TestConservation:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_exact_weights_conserved(self, n_shards):
        """Shards hold disjoint sensors, so a deterministic exact
        scatter-gather neither loses nor double-counts readings."""
        want = _unsharded().execute(WIDE).result_weight
        assert want > 0
        got = _federation(n_shards=n_shards).execute(WIDE)
        assert got.result_weight == want
        assert not got.partial

    def test_bench_conservation_gate(self):
        from repro.bench.federation import check_conservation

        check_conservation(600, seed=0, shard_counts=(1, 2, 4))

    def test_sampled_split_shares_sum_to_target(self):
        fed = _federation(n_shards=4)
        query = SensorQuery(
            region=Rect(0, 0, 100, 100), staleness_seconds=300.0, sample_size=48
        )
        plan = fed._plan(query)
        assert sum(sub.sample_size for _, sub in plan.subqueries) == 48
        assert plan.target == 48
        # Planning counts nothing: the split is counted when it is sent.
        assert fed.stats.sampled_splits == 0
        fed.execute(query)
        assert fed.stats.sampled_splits == 1


class TestScatterPlanning:
    def test_uncapped_missing_samplesize_broadcasts_exact(self):
        fed = _federation(n_shards=4)
        fed.execute(WIDE)
        assert fed.stats.exact_broadcasts == 1
        assert fed.stats.sampled_splits == 0

    def test_capped_missing_samplesize_demotes_to_cap(self):
        fed = _federation(n_shards=4, max_sensors_per_query=50)
        fed.execute(WIDE)
        assert fed.stats.exact_broadcasts == 0
        assert fed.stats.sampled_splits == 1

    def test_explicit_target_clamps_to_cap(self):
        fed = _federation(n_shards=4, max_sensors_per_query=50)
        query = SensorQuery(
            region=Rect(0, 0, 100, 100), staleness_seconds=300.0, sample_size=10_000
        )
        plan = fed._plan(query)
        assert sum(sub.sample_size for _, sub in plan.subqueries) == 50

    def test_exact_polygon_skips_the_topup_stage(self):
        """An exact polygon shares the sampled paths' finishing step
        (redistribute, then gather) but must come out of it untouched:
        no sample target, no top-up rounds, one call per routed shard."""
        fed = _federation()
        triangle = Polygon(
            [GeoPoint(10.0, 10.0), GeoPoint(90.0, 25.0), GeoPoint(45.0, 90.0)]
        )
        result = fed.execute_polygon(
            SensorQuery(region=triangle, staleness_seconds=300.0)
        )
        assert result.sample_requested is None
        assert result.redistribution_rounds_run == 0
        assert result.topup_results == ()
        assert not result.partial and result.result_weight > 0
        f = fed.stats
        assert f.exact_broadcasts == 1 and f.sampled_splits == 0
        assert len(result.shard_results) > 1
        assert f.shard_attempts == f.subqueries_scattered == len(result.shard_results)
        assert f.topup_subqueries == f.redistributions == f.sampled_shortfall == 0

    def test_narrow_viewport_routes_fewer_shards(self):
        fed = _federation(n_shards=4)
        routed = fed._plan(
            SensorQuery(region=Rect(1.0, 1.0, 9.0, 9.0), staleness_seconds=300.0)
        ).routes
        assert 1 <= len(routed) < 4

    def test_unknown_type_raises(self):
        fed = _federation(n_shards=2)
        with pytest.raises(KeyError, match="seismograph"):
            fed.execute(
                SensorQuery(
                    region=Rect(0, 0, 100, 100),
                    staleness_seconds=300.0,
                    sensor_type="seismograph",
                )
            )


class TestDegradation:
    def test_killed_shard_yields_flagged_partial_answer(self):
        fed = _federation(n_shards=4, federation=FederationConfig(shard_retry_budget=1))
        whole = fed.execute(WIDE)
        fed.kill_shard(2)
        degraded = fed.execute(WIDE)  # must not raise
        assert degraded.partial
        assert degraded.failed_shards == (2,)
        assert degraded.shard_retries == 1
        assert 2 not in degraded.shard_results
        assert 0 < degraded.result_weight < whole.result_weight
        assert fed.stats.partial_answers == 1
        assert fed.stats.shard_failures == 1

    def test_retry_budget_and_backoff_charged_to_gather(self):
        fed = _federation(
            n_shards=2, federation=FederationConfig(shard_retry_budget=2)
        )
        fed.kill_shard(1)
        result = fed.execute(WIDE)
        assert result.shard_retries == 2
        # Backoff 0.5 + 1.0 = 1.5s occupies the failed shard's gather slot.
        assert RETRY_BACKOFF_BASE * (1 + RETRY_BACKOFF_MULTIPLIER) == 1.5
        assert result.collection_seconds >= 1.5

    def test_revive_restores_whole_answers(self):
        fed = _federation(n_shards=4)
        fed.kill_shard(1)
        assert fed.execute(WIDE).partial
        fed.revive_shard(1)
        recovered = fed.execute(WIDE)
        assert not recovered.partial and not recovered.failed_shards

    def test_health_state_survives_rebuild(self):
        fed = _federation(n_shards=2)
        fed.kill_shard(1)
        fed.register_sensor(GeoPoint(50.0, 50.0), expiry_seconds=300.0)
        fed.rebuild_index()
        assert fed.execute(WIDE).failed_shards == (1,)


class TestBatch:
    def _queries(self):
        return [
            WIDE,
            SensorQuery(
                region=Rect(10, 10, 60, 60), staleness_seconds=120.0, sample_size=20
            ),
            SensorQuery(region=Rect(40, 40, 95, 95), staleness_seconds=120.0),
        ]

    def test_batch_reassembles_per_query_results(self):
        fed = _federation(n_shards=4)
        batch = fed.execute_batch(self._queries())
        assert len(batch.results) == 3
        assert not batch.partial
        assert set(batch.shard_seconds) <= set(range(4))
        for result, query in zip(batch.results, self._queries()):
            assert result.query == query
            assert result.result_weight > 0

    def test_batch_with_killed_shard_degrades_routed_queries_only(self):
        fed = _federation(n_shards=4)
        fed.kill_shard(0)
        batch = fed.execute_batch(self._queries())
        assert batch.partial and batch.failed_shards == (0,)
        wide_result = batch.results[0]  # routes everywhere, so degraded
        assert wide_result.partial and wide_result.failed_shards == (0,)
        untouched = [
            r
            for r in batch.results
            if 0 not in {s for s, _ in fed._plan(r.query).subqueries}
        ]
        for result in untouched:
            assert not result.partial

    def test_empty_batch(self):
        fed = _federation(n_shards=2)
        batch = fed.execute_batch([])
        assert batch.results == [] and not batch.partial


class TestIntrospection:
    def test_explain_lists_scatter_and_skips_killed(self, monkeypatch):
        """EXPLAIN is the plan: it lists the scatter the directory
        routes, the killed shard included, and skips calling any shard
        (the killed one too) to write it."""
        fed = _federation(n_shards=4)
        fed.kill_shard(3)
        before = asdict(fed.stats)

        def no_call(*args):
            raise AssertionError(f"explain called a shard: {args}")

        monkeypatch.setattr(fed._backend, "call", no_call)
        plan = fed.explain(WIDE)
        assert plan == fed._plan(WIDE)
        assert [shard_id for shard_id, _ in plan.subqueries] == [0, 1, 2, 3]
        assert asdict(fed.stats) == before

    def test_stats_summary_shape(self):
        fed = _federation(n_shards=2)
        fed.execute(WIDE)
        summary = fed.stats_summary()
        assert summary["n_shards"] == 2
        assert summary["total_sensors"] == 240
        assert len(summary["directory"]) == 2
        assert summary["federation"]["queries"] == 1

    def test_sensor_types_and_shards_accessors(self):
        fed = _federation(n_shards=2)
        assert len(fed.shards()) == 2
        assert fed.shard(0) is fed.shards()[0]

    def test_kmeans_partitioner_builds_working_federation(self):
        fed = _federation(
            n_shards=3, partitioner=KMeansPartitioner(3, seed=1)
        )
        assert fed.n_shards == 3
        assert fed.execute(WIDE).result_weight > 0

    def test_misaligned_partitioner_rejected(self):
        class Broken:
            n_shards = 2

            def assign(self, sensors):
                return [0]

        portal = FederatedPortal(partitioner=Broken())
        portal.register_sensor(GeoPoint(1.0, 1.0), expiry_seconds=300.0)
        portal.register_sensor(GeoPoint(2.0, 2.0), expiry_seconds=300.0)
        with pytest.raises(ValueError, match="misaligned"):
            portal.rebuild_index()

    def test_no_sensors_rejected(self):
        with pytest.raises(ValueError, match="no sensors"):
            FederatedPortal(n_shards=2).rebuild_index()


class TestContinuousOverFederation:
    def test_continuous_manager_drives_federated_portal(self):
        """The continuous-query manager only needs clock + execute, so a
        federation drops in: subscriptions run scattered and record
        merged (possibly partial) results."""
        fed = _federation(n_shards=4)
        manager = ContinuousQueryManager(fed)
        sub = manager.subscribe(WIDE, refresh_seconds=30.0)
        ran = manager.tick()
        assert len(ran) == 1
        assert sub.last_result is not None
        assert sub.last_result.result_weight > 0
        fed.kill_shard(1)
        fed.clock.advance(30.0)
        ran = manager.tick()
        assert len(ran) == 1
        assert sub.last_result.partial
