"""Cross-shard REDISTRIBUTE failure handling and EXPLAIN consistency.

The top-up rounds run *after* the first gather, against shards that
already did a round of work.  A shard that dies or times out mid-top-up
must degrade exactly like a first-round casualty: the federated answer
keeps everything round 1 delivered, flags the query partial, and the
shard's transport-layer dedup tables stay intact for the next query.

EXPLAIN, being the read-only twin of execute, must describe the same
scatter and the same redistribution plan that an execute on the same
portal actually performs.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.federation import FederatedPortal, FederationConfig, ShardDownError
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorQuery
from repro.transport import TransportConfig

EXTENT = 100.0
WHOLE = Rect(0.0, 0.0, EXTENT, EXTENT)


def _skewed_federation(
    n_sensors: int = 200,
    seed: int = 11,
    rounds: int = 2,
) -> FederatedPortal:
    """Four grid shards (2x2: x-strips split by y), the low-x half of
    the fleet nearly dead: a sampled query over the whole extent falls
    short on shards 0/1 and tops up from healthy shards 2/3."""
    fed = FederatedPortal(
        n_shards=4,
        transport=replace(TransportConfig.parity(), inflight_ttl=120.0),
        federation=FederationConfig(
            shard_retry_budget=0,
            redistribution_rounds=max(rounds, 0),
        ),
        max_sensors_per_query=None,
        network_options={"latency_jitter": 0.0},
    )
    rng = np.random.default_rng(seed)
    for x, y in rng.random((n_sensors, 2)) * EXTENT:
        fed.register_sensor(
            GeoPoint(float(x), float(y)),
            expiry_seconds=600.0,
            availability=0.05 if x < EXTENT / 2 else 1.0,
        )
    fed.rebuild_index()
    # Calibrate so the flaky half is *expected* to under-deliver (the
    # sampler plans with the model's estimate, not the hidden truth).
    for shard in fed.shards():
        for sensor in shard.registry.all():
            a = sensor.availability
            fed_obs = round(a * 400)
            shard.availability.seed(sensor.sensor_id, fed_obs, 400 - fed_obs)
    return fed


def _query(target: int = 80) -> SensorQuery:
    return SensorQuery(region=WHOLE, staleness_seconds=600.0, sample_size=target)


class TestTopupShardFailure:
    """Satellite regression: a shard lost *during* the top-up round."""

    def _arm_second_call_failure(self, fed, shard_id):
        """The shard answers its round-1 sub-query, then goes down."""
        shard = fed.shard(shard_id)
        real = shard.execute_batch
        calls = {"n": 0}

        def flaky_execute_batch(queries):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise ShardDownError(f"shard {shard_id} crashed mid-top-up")
            return real(queries)

        shard.execute_batch = flaky_execute_batch
        return calls, real

    def test_crash_during_topup_keeps_round1_and_flags_partial(self):
        fed = _skewed_federation(rounds=1)
        calls, real = self._arm_second_call_failure(fed, 3)

        result = fed.execute(_query())
        assert calls["n"] == 2, "the top-up round must have re-called shard 3"
        assert result.partial
        assert 3 in result.failed_shards
        # Round 1's answer from the now-dead shard is NOT thrown away.
        assert 3 in result.shard_results
        assert result.shard_results[3].result_weight > 0
        assert result.result_weight >= sum(
            r.result_weight for r in result.shard_results.values()
        )
        # The surviving healthy shard still topped up, but the dead
        # shard's share of the shortfall stayed open.
        assert result.redistribution_rounds_run == 1
        assert result.sampled_shortfall > 0

        # The shard's dispatcher/cache state is unpoisoned: the crash
        # happened before any round-2 work, so after revival a repeat of
        # the round-1 scatter (top-ups off to isolate it) is served from
        # the shard's slot caches and dedup tables with zero new wire
        # traffic.
        shard = fed.shard(3)
        shard.execute_batch = real
        fed.revive_shard(3)
        fed.federation = replace(fed.federation, redistribution_rounds=0)
        attempted = shard.network.stats.probes_attempted
        fed.clock.advance(10.0)
        again = fed.execute(_query())
        assert not again.partial
        assert again.shard_results[3].result_weight > 0
        # The randomized sampler may pick a few sensors outside the
        # warmed set; a wiped or poisoned table would re-probe the full
        # sample (~20 sensors).
        assert shard.network.stats.probes_attempted - attempted <= 5, (
            "re-query within ttl must be served from the tables"
        )

    def test_healthy_topup_is_not_partial(self):
        """Control: the same federation without the failure injection
        recovers the shortfall and stays whole."""
        fed = _skewed_federation()
        result = fed.execute(_query())
        assert not result.partial
        assert result.redistribution_rounds_run >= 1
        assert result.topup_sensors_gained > 0


class TestTopupIsCounted:
    """A federated tick's probe totals are the sum of its merged
    answers' stats, so the top-up rounds' probes count as the first
    round's do."""

    def test_tick_contacts_equal_the_shards_wire_attempts(self):
        fed = _skewed_federation(rounds=1)
        before = sum(s.network.stats.probes_attempted for s in fed.shards())
        batch = fed.execute_batch([_query()])
        attempted = sum(s.network.stats.probes_attempted for s in fed.shards())
        (result,) = batch.results
        assert result.redistribution_rounds_run == 1
        assert result.topup_sensors_gained > 0
        contacts = sum(
            a.stats.sensors_probed
            - a.stats.probes_deduped
            - a.stats.probes_cooldown_skipped
            for a in result.answers
        )
        assert contacts == attempted - before
        # The top-up's own probes are in that count.
        topup = sum(
            a.stats.sensors_probed
            for _, extra in result.topup_results
            for a in extra.answers
        )
        assert topup > 0


class TestExplainMatchesExecute:
    """EXPLAIN's plan — its sub-queries and top-up rounds — describes
    what execute actually does on the same portal."""

    def test_scatter_plan_matches_executed_shards(self):
        fed = _skewed_federation()
        query = _query()
        plan = fed.explain(query)
        sent = []
        scatter_plans = fed._scatter

        def recording(plans):
            sent.extend(plans)
            return scatter_plans(plans)

        fed._scatter = recording
        result = fed.execute(query)

        # The first plan execute scattered is the one explain returned,
        # sub-query for sub-query; the rest are its top-up rounds.
        assert sent[0] == plan["plan"]
        assert len(sent) == 1 + result.redistribution_rounds_run
        scatter = {
            shard_id: sub.sample_size for shard_id, sub in plan["plan"].subqueries
        }
        assert set(scatter) == set(result.shard_results)
        assert sum(scatter.values()) == query.sample_size
        # Each shard was asked exactly the planned sub-query size
        # (requested readings = share x the shard's type-tree fan-out).
        for shard_id, sub in result.shard_results.items():
            n_trees = max(1, len(fed.directory.entry(shard_id).sensor_types))
            assert sub.sample_requested == scatter[shard_id] * n_trees

    @pytest.mark.parametrize("target", [None, 80], ids=["exact", "sampled"])
    def test_explain_leaves_the_counters_alone(self, target):
        fed = _skewed_federation()
        query = SensorQuery(region=WHOLE, staleness_seconds=600.0, sample_size=target)
        before = asdict(fed.stats)
        fed.explain(query)
        fed.explain(query)
        assert asdict(fed.stats) == before

    def test_redistribution_plan_matches_execute_behavior(self):
        fed = _skewed_federation()
        query = _query()
        plan = fed.explain(query)["plan"]
        result = fed.execute(query)

        assert plan.topup_rounds > 0
        assert plan.topup_rounds == fed.federation.redistribution_rounds
        assert result.redistribution_rounds_run >= 1
        assert result.redistribution_rounds_run <= plan.topup_rounds
        assert plan.target == query.sample_size
        assert plan.target_readings == result.sample_requested
        # The plan routes exactly the shards that answered, and no top-up
        # gained more than the routed shards' pools could hold.
        assert {r.shard_id for r in plan.routes} == set(result.shard_results)
        pools = fed.directory.residual_routes(plan.routes, {})
        assert result.topup_sensors_gained <= sum(r.weight for r in pools)

    def test_ineligible_when_disabled_or_single_shard(self):
        disabled = _skewed_federation(rounds=0)
        assert disabled.explain(_query())["plan"].topup_rounds == 0
        result = disabled.execute(_query())
        assert result.redistribution_rounds_run == 0
        assert result.topup_results == ()

        single = FederatedPortal(n_shards=1, max_sensors_per_query=None)
        rng = np.random.default_rng(3)
        for x, y in rng.random((50, 2)) * EXTENT:
            single.register_sensor(
                GeoPoint(float(x), float(y)), expiry_seconds=600.0
            )
        single.rebuild_index()
        assert single.explain(_query(20))["plan"].topup_rounds == 0
        assert single.execute(_query(20)).redistribution_rounds_run == 0

    def test_unsampled_query_is_never_eligible(self):
        fed = _skewed_federation()
        query = SensorQuery(region=WHOLE, staleness_seconds=600.0)
        plan = fed.explain(query)["plan"]
        assert plan.target is None
        assert plan.topup_rounds == 0
        assert fed.execute(query).redistribution_rounds_run == 0
