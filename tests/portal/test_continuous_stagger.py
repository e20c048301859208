"""Staggered continuous-query ticks: per-subscription phase offsets and
their interaction with the transport dispatcher's dedup tables."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.geometry import GeoPoint, Rect
from repro.portal import ContinuousQueryManager, SensorMapPortal, SensorQuery
from repro.transport import TransportConfig


def _build_portal(transport=None, n=80, availability=1.0):
    rng = np.random.default_rng(7)
    portal = SensorMapPortal(max_sensors_per_query=None, transport=transport)
    for x, y in rng.random((n, 2)) * 100:
        portal.register_sensor(
            GeoPoint(float(x), float(y)),
            expiry_seconds=600.0,
            availability=availability,
        )
    portal.rebuild_index()
    return portal


QUERY = SensorQuery(region=Rect(10.0, 10.0, 90.0, 90.0), staleness_seconds=120.0)


class TestPhaseOffsets:
    def test_default_phase_is_zero_and_due_immediately(self):
        portal = _build_portal()
        manager = ContinuousQueryManager(portal)
        sub = manager.subscribe(QUERY, refresh_seconds=60.0)
        assert sub.phase_seconds == 0.0
        assert sub.due_at() == portal.clock.now()
        assert len(manager.tick()) == 1

    def test_explicit_phase_delays_first_run_only(self):
        portal = _build_portal()
        manager = ContinuousQueryManager(portal)
        sub = manager.subscribe(QUERY, refresh_seconds=60.0, phase_seconds=25.0)
        assert manager.tick() == []
        portal.clock.advance(20.0)
        assert manager.tick() == []
        portal.clock.advance(10.0)  # t=30 >= phase 25
        assert len(manager.tick()) == 1
        # Subsequent runs follow refresh_seconds from the last run.
        assert sub.due_at() == pytest.approx(30.0 + 60.0)

    def test_negative_phase_rejected(self):
        manager = ContinuousQueryManager(_build_portal())
        with pytest.raises(ValueError):
            manager.subscribe(QUERY, refresh_seconds=60.0, phase_seconds=-1.0)

    def test_negative_stagger_rejected(self):
        with pytest.raises(ValueError):
            ContinuousQueryManager(_build_portal(), stagger_seconds=-5.0)

    def test_stagger_assigns_distinct_spread_phases(self):
        portal = _build_portal()
        manager = ContinuousQueryManager(portal, stagger_seconds=30.0)
        subs = [manager.subscribe(QUERY, refresh_seconds=60.0) for _ in range(8)]
        phases = [s.phase_seconds for s in subs]
        assert phases[0] == 0.0
        assert len(set(phases)) == len(phases), "golden-ratio offsets collide"
        assert all(0.0 <= p < 30.0 for p in phases)

    def test_staggered_subscriptions_fire_across_ticks(self):
        portal = _build_portal()
        manager = ContinuousQueryManager(portal, stagger_seconds=30.0)
        for _ in range(6):
            manager.subscribe(QUERY, refresh_seconds=60.0)
        first_tick = len(manager.tick())  # only phase-0 subscriptions
        assert first_tick < 6
        ran = first_tick
        for _ in range(6):
            portal.clock.advance(5.0)
            ran += len(manager.tick())
        assert ran == 6, "every subscription ran once within the stagger window"
        # After the window, each keeps its own cadence.
        portal.clock.advance(60.0)
        assert len(manager.tick()) == 6

    def test_explicit_phase_overrides_stagger(self):
        manager = ContinuousQueryManager(_build_portal(), stagger_seconds=30.0)
        manager.subscribe(QUERY, refresh_seconds=60.0)  # auto phase 0
        sub = manager.subscribe(QUERY, refresh_seconds=60.0, phase_seconds=3.5)
        assert sub.phase_seconds == 3.5


class TestDispatcherAbsorbsStaggeredOverlap:
    def test_recent_table_absorbs_staggered_rerequests(self):
        """Two same-viewport subscriptions staggered onto different
        ticks within the dispatcher's recently-probed ttl.  The first
        tick's *successes* enter the portal's slot caches (the twin
        never re-requests them); its *failures* do not, so the twin's
        tick re-requests exactly those sensors — and the dispatcher's
        recently-probed table answers every one from its cached-failure
        entries: zero new wire traffic."""
        portal = _build_portal(
            transport=replace(TransportConfig.parity(), inflight_ttl=60.0), availability=0.5
        )
        manager = ContinuousQueryManager(portal)
        manager.subscribe(QUERY, refresh_seconds=120.0, phase_seconds=0.0)
        late = manager.subscribe(QUERY, refresh_seconds=120.0, phase_seconds=10.0)

        ran = manager.tick()  # t=0: only the phase-0 subscription
        assert [s.subscription_id for s, _ in ran] == [0]
        attempted = portal.network.stats.probes_attempted
        assert attempted > 0
        failures = attempted - portal.network.stats.probes_succeeded
        assert failures > 0, "flaky fleet expected some failed probes"

        portal.clock.advance(10.0)  # t=10: the staggered twin fires
        ran = manager.tick()
        assert [s.subscription_id for s, _ in ran] == [late.subscription_id]
        assert portal.network.stats.probes_attempted == attempted, (
            "staggered twin re-contacted sensors the table already covers"
        )
        assert portal.dispatcher.stats.dedup_recent == failures
        # The absorbed tick still produced a full answer from cache.
        assert late.last_result is not None
        assert late.last_result.result_weight > 0

    def test_inflight_table_absorbs_concurrently_submitted_rounds(self):
        """Rounds submitted while each other are still unresolved share
        one logical probe per sensor via the in-flight table."""
        from repro.transport import ProbeDispatcher

        portal = _build_portal()
        ids = [s.sensor_id for s in portal.registry.all()][:20]
        dispatcher = ProbeDispatcher(
            portal.network, TransportConfig(overlap_enabled=True)
        )
        first = dispatcher.submit(ids, now=0.0)
        second = dispatcher.submit(ids, now=0.0)
        dispatcher.drain()
        assert first.resolved and second.resolved
        assert dispatcher.stats.dedup_inflight == len(ids)
        assert sorted(second.deduped) == sorted(ids)
        assert second.readings == first.readings
        assert portal.network.stats.probes_attempted == len(ids)

    def test_stagger_without_transport_still_correct(self):
        portal = _build_portal()
        manager = ContinuousQueryManager(portal, stagger_seconds=20.0)
        a = manager.subscribe(QUERY, refresh_seconds=60.0)
        b = manager.subscribe(QUERY, refresh_seconds=60.0)
        total = len(manager.tick())
        for _ in range(5):
            portal.clock.advance(5.0)
            total += len(manager.tick())
        assert total == 2
        assert a.executions == 1 and b.executions == 1
