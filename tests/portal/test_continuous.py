"""Standing (continuous) queries over the portal clock."""

import pytest

from repro import COLRTreeConfig, Rect
from repro.portal import ContinuousQueryManager, SensorMapPortal, SensorQuery

from tests.conftest import make_registry


@pytest.fixture
def portal():
    portal = SensorMapPortal(
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        value_fn=lambda s, t: float(s.sensor_id % 5) + t / 1000.0,
        max_sensors_per_query=None,
    )
    portal.register_all(make_registry(n=300, seed=41).all())
    return portal


QUERY = SensorQuery(
    region=Rect(0, 0, 60, 60), staleness_seconds=120.0, sample_size=40
)


class TestSubscriptionLifecycle:
    def test_subscribe_assigns_ids(self, portal):
        manager = ContinuousQueryManager(portal)
        a = manager.subscribe(QUERY)
        b = manager.subscribe(QUERY)
        assert (a.subscription_id, b.subscription_id) == (0, 1)
        assert manager.subscriptions() == [a, b]

    def test_default_refresh_is_staleness(self, portal):
        manager = ContinuousQueryManager(portal)
        sub = manager.subscribe(QUERY)
        assert sub.refresh_seconds == 120.0

    def test_invalid_refresh_rejected(self, portal):
        manager = ContinuousQueryManager(portal)
        with pytest.raises(ValueError):
            manager.subscribe(QUERY, refresh_seconds=0)


class TestTicking:
    def test_first_tick_runs_immediately(self, portal):
        manager = ContinuousQueryManager(portal)
        sub = manager.subscribe(QUERY)
        ran = manager.tick()
        assert len(ran) == 1
        assert sub.executions == 1

    def test_not_due_no_rerun(self, portal):
        manager = ContinuousQueryManager(portal)
        manager.subscribe(QUERY, refresh_seconds=100.0)
        manager.tick()
        portal.clock.advance(10.0)
        assert manager.tick() == []

    def test_due_after_interval(self, portal):
        manager = ContinuousQueryManager(portal)
        sub = manager.subscribe(QUERY, refresh_seconds=100.0)
        manager.tick()
        portal.clock.advance(150.0)
        assert len(manager.tick()) == 1
        assert sub.executions == 2


class TestDeltas:
    def test_first_run_everything_appears(self, portal):
        manager = ContinuousQueryManager(portal)
        manager.subscribe(QUERY)
        [(sub, delta)] = manager.tick()
        assert len(delta.appeared) == sub.last_result.result_weight
        assert delta.departed == ()
        assert delta.aggregate_before is None

    def test_changed_values_detected(self, portal):
        manager = ContinuousQueryManager(portal)
        manager.subscribe(QUERY, refresh_seconds=50.0)
        manager.tick()
        # Past the staleness bound everything is re-probed with a new
        # time-dependent value.
        portal.clock.advance(200.0)
        [(sub, delta)] = manager.tick()
        assert delta.changed or delta.appeared

    def test_empty_region_delta_empty(self, portal):
        manager = ContinuousQueryManager(portal)
        empty_query = SensorQuery(
            region=Rect(500, 500, 600, 600), staleness_seconds=60.0, sample_size=10
        )
        manager.subscribe(empty_query)
        [(sub, delta)] = manager.tick()
        assert (
            not (delta.appeared or delta.departed or delta.changed)
            and delta.aggregate_before == delta.aggregate_after
        ) or delta.aggregate_after is None

    def test_callback_invoked(self, portal):
        calls = []
        manager = ContinuousQueryManager(portal)
        manager.subscribe(
            QUERY,
            callback=lambda sub, delta, result: calls.append(
                (sub.subscription_id, len(delta.appeared))
            ),
        )
        manager.tick()
        assert len(calls) == 1
        assert calls[0][0] == 0

    def test_aggregate_drift_tracked(self, portal):
        manager = ContinuousQueryManager(portal)
        sub = manager.subscribe(QUERY, refresh_seconds=50.0)
        manager.tick()
        portal.clock.advance(300.0)
        [(_, delta)] = manager.tick()
        assert delta.aggregate_before is not None
        assert delta.aggregate_after is not None


EXACT_A = SensorQuery(region=Rect(0, 0, 60, 60), staleness_seconds=120.0)
EXACT_B = SensorQuery(region=Rect(30, 30, 90, 90), staleness_seconds=120.0)


class TestDeltaSemanticsUnderBatching:
    """Delta correctness when a tick batches several due subscriptions
    (the batch-executor rewiring's safety net)."""

    def test_overlapping_subscriptions_each_get_full_results(self, portal):
        manager = ContinuousQueryManager(portal)
        a = manager.subscribe(EXACT_A, refresh_seconds=60.0)
        b = manager.subscribe(EXACT_B, refresh_seconds=60.0)
        same_as_a = manager.subscribe(EXACT_A, refresh_seconds=60.0)
        ran = manager.tick()
        assert [s.subscription_id for s, _ in ran] == [0, 1, 2]
        deltas = {s.subscription_id: d for s, d in ran}
        # First run: everything appears, nothing departed/changed.
        for d in deltas.values():
            assert d.appeared and not d.departed and not d.changed
        # Identical standing queries see identical deltas even though
        # only one of them paid for the probes.
        assert deltas[a.subscription_id].appeared == deltas[
            same_as_a.subscription_id
        ].appeared
        assert b.last_result.result_weight == len(
            deltas[b.subscription_id].appeared
        )

    def test_batched_tick_matches_sequential_tick(self):
        """Two portals, same subscriptions: one ticked via the batch
        path, one executed subscription-by-subscription; the deltas
        must agree (availability 1, shared clock instant)."""

        def build():
            p = SensorMapPortal(
                COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
                value_fn=lambda s, t: float(s.sensor_id % 7) + t / 1000.0,
                max_sensors_per_query=None,
            )
            p.register_all(make_registry(n=300, seed=41).all())
            return p

        batch_portal, seq_portal = build(), build()
        manager = ContinuousQueryManager(batch_portal)
        manager.subscribe(EXACT_A, refresh_seconds=60.0)
        manager.subscribe(EXACT_B, refresh_seconds=60.0)
        for tick in range(3):
            ran = manager.tick()
            seq_results = [
                seq_portal.execute(q) for q in (EXACT_A, EXACT_B)
            ]
            for (_, delta), seq_result in zip(ran, seq_results):
                batch_ids = set(delta.appeared) | set(delta.changed)
                seq_ids = {
                    r.sensor_id
                    for a in seq_result.answers
                    for r in list(a.probed_readings) + list(a.cached_readings)
                }
                # Every sensor the sequential run sees is in the batch
                # run's cumulative view, and first tick they are equal.
                if tick == 0:
                    assert set(delta.appeared) == seq_ids
            batch_portal.clock.advance(61.0)
            seq_portal.clock.advance(61.0)

    def test_subscribe_mid_run_joins_next_tick(self, portal):
        manager = ContinuousQueryManager(portal)
        manager.subscribe(EXACT_A, refresh_seconds=60.0)
        manager.tick()
        late = manager.subscribe(EXACT_B, refresh_seconds=60.0)
        portal.clock.advance(30.0)
        ran = manager.tick()  # only the late one is due
        assert [s.subscription_id for s, _ in ran] == [late.subscription_id]
        assert late.executions == 1
        d = ran[0][1]
        assert d.appeared and not d.departed

    def test_resubscribe_fresh_baseline(self, portal):
        """A new subscription over the same region starts from scratch:
        everything its own run sees appears, regardless of what a
        previous subscription (on another manager) had seen.  The id universe may
        shrink on the warm run — subtrees fully covered by cached
        aggregates answer as sketches, which carry no sensor ids — but
        the total result weight is preserved."""
        first = ContinuousQueryManager(portal)
        old = first.subscribe(EXACT_A, refresh_seconds=60.0)
        first.tick()
        seen_before = set(old._last_values)
        old_weight = old.last_result.result_weight
        manager = ContinuousQueryManager(portal)
        fresh = manager.subscribe(EXACT_A, refresh_seconds=60.0)
        ran = manager.tick()
        appeared = set(ran[0][1].appeared)
        assert appeared == set(fresh._last_values)
        assert appeared <= seen_before
        assert not ran[0][1].departed and not ran[0][1].changed
        assert fresh.last_result.result_weight == old_weight
        assert fresh.executions == 1

    def test_values_change_across_batched_ticks(self, portal):
        """value_fn depends on t, so advancing past the staleness bound
        re-probes and every sensor reports `changed`."""
        manager = ContinuousQueryManager(portal)
        a = manager.subscribe(EXACT_A, refresh_seconds=130.0)
        b = manager.subscribe(EXACT_A, refresh_seconds=130.0)
        first = manager.tick()
        portal.clock.advance(131.0)
        second = manager.tick()
        assert len(first) == len(second) == 2
        for (_, d1), (_, d2) in zip(first, second):
            assert d1.appeared and not d1.changed
            assert set(d2.changed) == set(d1.appeared)
            assert not d2.departed
        assert a.executions == b.executions == 2
