"""Failed-probe behavior on flaky networks (availability < 1).

Characterizes the sync baseline — a sensor that fails is re-contacted
on every subsequent tick that wants it — and pins the transport
semantics that replace it: failure memory in the recently-probed table,
cooldown for sensors the availability model has written off, and
exactly one availability-model observation per logical probe no matter
how many wire attempts retries add.
"""

from __future__ import annotations

from dataclasses import replace

from repro import AvailabilityModel, SensorNetwork
from repro.transport import ProbeDispatcher, TransportConfig
from tests.conftest import make_registry, observed_probes


def _network(availability, seed=3, n=40):
    registry = make_registry(n=n, availability=availability, seed=11)
    return SensorNetwork(
        registry.all(), availability_model=AvailabilityModel(), seed=seed
    )


def test_sync_baseline_recontacts_failures_every_tick():
    # Characterization: without the transport layer, a dead sensor costs
    # one wire probe on every tick that asks for it, forever.
    net = _network(availability=0.0)
    ids = list(range(10))
    for tick in range(5):
        result = net.probe(ids, now=tick * 45.0)
        assert len(result.unavailable) == 10
    assert net.stats.probes_attempted == 50
    assert net.stats.probes_succeeded == 0
    # ...and the model keeps accumulating evidence it never acts on.
    assert all(observed_probes(net.availability_model, sid) == 5 for sid in ids)


def test_transport_failure_memory_caps_recontact():
    # Same workload through the dispatcher with cooldown disabled: the
    # first tick pays 10 probes, ticks inside the ttl are served from
    # failure memory, and only ttl expiry re-contacts.
    net = _network(availability=0.0)
    ids = list(range(10))
    cfg = TransportConfig(
        seed=7,
        max_retries=0,
        overlap_enabled=False,
        inflight_ttl=60.0,
        cooldown_seconds=0.0,
    )
    d = ProbeDispatcher(net, cfg)
    for tick in range(5):
        rnd = d.collect(ids, now=tick * 45.0)
        assert len(rnd.readings) == 0
    # Ticks at t=0/90/180 contact (ttl lapsed); t=45 and t=135 are
    # served from failure memory.
    assert net.stats.probes_attempted == 30
    assert d.stats.dedup_recent == 20
    assert all(observed_probes(net.availability_model, sid) == 3 for sid in ids)


def test_cooldown_takes_precedence_over_failure_memory():
    # With both tables armed, a sensor whose estimate fell below the
    # threshold is skipped by cooldown on every tick — failure memory
    # never even gets consulted, and the model's history stays at one
    # logical probe.
    net = _network(availability=0.0)
    ids = list(range(10))
    cfg = TransportConfig(
        seed=7,
        max_retries=0,
        overlap_enabled=False,
        inflight_ttl=60.0,
        cooldown_seconds=300.0,
    )
    d = ProbeDispatcher(net, cfg)
    for tick in range(5):
        rnd = d.collect(ids, now=tick * 45.0)
        assert len(rnd.readings) == 0
    assert net.stats.probes_attempted == 10
    assert d.stats.cooldown_skips == 40
    assert all(observed_probes(net.availability_model, sid) == 1 for sid in ids)


def test_cooldown_expires_and_allows_reassessment():
    net = _network(availability=0.0)
    sid = 0
    cfg = replace(TransportConfig.parity(), cooldown_seconds=100.0)
    d = ProbeDispatcher(net, cfg)
    d.collect([sid], now=0.0)
    assert d.collect([sid], now=50.0).cooldown_skipped == [sid]
    # Cooldown is re-armed from the *last resolution*, not extended by
    # skipped ticks: the t=0 failure cools until t=100.
    rnd = d.collect([sid], now=101.0)
    assert rnd.cooldown_skipped == []
    assert rnd.unavailable == [sid]
    assert net.stats.probes_attempted == 2
    assert observed_probes(net.availability_model, sid) == 2


def test_retries_do_not_inflate_availability_history():
    # A flaky sensor probed with retries across several ticks: the
    # wire-attempt count grows with retries, the model's history grows
    # exactly once per logical probe.
    net = _network(availability=0.0)
    sid = 0
    cfg = TransportConfig(
        seed=7, max_retries=3, inflight_ttl=0.0, cooldown_seconds=0.0
    )
    d = ProbeDispatcher(net, cfg)
    for tick in range(4):
        d.collect([sid], now=tick * 400.0)
    assert net.stats.probes_attempted == 16  # 4 ticks x (1 + 3 retries)
    assert net.stats.probes_retried == 12
    assert observed_probes(net.availability_model, sid) == 4
    # Four observed failures under a Beta(1, 1) prior.
    assert net.availability_model.estimate(sid) == 1.0 / 6.0


def test_mixed_fleet_only_flaky_sensors_cool_down():
    registry = make_registry(n=40, availability=1.0, seed=11)
    sensors = [
        replace(s, availability=0.0) if i < 10 else s
        for i, s in enumerate(registry.all())
    ]
    flaky_ids = {s.sensor_id for s in sensors[:10]}
    model = AvailabilityModel()
    net = SensorNetwork(sensors, availability_model=model, seed=3)
    cfg = replace(TransportConfig.parity(), cooldown_seconds=300.0)
    d = ProbeDispatcher(net, cfg)
    all_ids = [s.sensor_id for s in sensors]
    d.collect(all_ids, now=0.0)
    rnd = d.collect(all_ids, now=30.0, max_staleness=10.0)
    assert set(rnd.cooldown_skipped) == flaky_ids
    assert set(rnd.readings) == {sid for sid in all_ids if sid not in flaky_ids}
