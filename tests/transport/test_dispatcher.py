"""ProbeDispatcher mechanics: dedup tables, retry/backoff, cooldown,
overlap scheduling and streaming ingestion."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import AvailabilityModel, COLRTree, COLRTreeConfig, SensorNetwork
from repro.transport import ProbeDispatcher, TransportConfig
from repro.transport.dispatcher import (
    BACKOFF_BASE,
    BACKOFF_JITTER,
    BACKOFF_MULTIPLIER,
    STREAM_CHUNK,
)
from tests.conftest import make_registry, observed_probes, slot_ids


CFG = COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0)


def _network(availability=1.0, seed=3, n=60, **kw):
    registry = make_registry(n=n, availability=availability, seed=11)
    net = SensorNetwork(
        registry.all(), availability_model=AvailabilityModel(), seed=seed, **kw
    )
    return registry, net


# ----------------------------------------------------------------------
# Parity mode
# ----------------------------------------------------------------------
def test_parity_collect_matches_probe():
    _, a = _network(availability=0.6, latency_jitter=0.3, timeout_seconds=0.5)
    _, b = _network(availability=0.6, latency_jitter=0.3, timeout_seconds=0.5)
    ids = list(range(40))
    expected = a.probe(ids, now=50.0)
    dispatcher = ProbeDispatcher(b, TransportConfig.parity())
    rnd = dispatcher.collect(ids, now=50.0)
    assert rnd.readings == dict(expected.readings)
    assert tuple(rnd.unavailable) == expected.unavailable
    assert tuple(rnd.timed_out) == expected.timed_out
    assert rnd.latency_seconds == expected.latency_seconds
    assert a.stats == b.stats
    assert not dispatcher.streams_ingestion


# ----------------------------------------------------------------------
# Recently-probed table
# ----------------------------------------------------------------------
def test_recent_success_served_within_ttl():
    _, net = _network()
    ids = list(range(10))
    d = ProbeDispatcher(net, replace(TransportConfig.parity(), inflight_ttl=60.0))
    first = d.collect(ids, now=0.0)
    attempted = net.stats.probes_attempted
    second = d.collect(ids, now=30.0, max_staleness=120.0)
    assert net.stats.probes_attempted == attempted, "no new wire traffic"
    assert sorted(second.deduped) == sorted(ids)
    assert second.readings == first.readings
    assert d.stats.dedup_recent == len(ids)


def test_recent_entry_respects_staleness_bound():
    _, net = _network()
    ids = list(range(5))
    d = ProbeDispatcher(net, replace(TransportConfig.parity(), inflight_ttl=60.0))
    d.collect(ids, now=0.0)
    rnd = d.collect(ids, now=30.0, max_staleness=10.0)
    # Cached readings are 30s old, bound is 10s: must re-contact.
    assert not rnd.deduped
    assert net.stats.probes_attempted == 2 * len(ids)
    assert all(r.timestamp == 30.0 for r in rnd.readings.values())


def test_recent_failure_not_recontacted_within_ttl():
    _, net = _network(availability=0.0)
    ids = list(range(8))
    d = ProbeDispatcher(net, replace(TransportConfig.parity(), inflight_ttl=60.0))
    first = d.collect(ids, now=0.0)
    assert sorted(first.unavailable) == sorted(ids)
    second = d.collect(ids, now=20.0)
    assert net.stats.probes_attempted == len(ids)
    assert sorted(second.unavailable) == sorted(ids)
    assert sorted(second.deduped) == sorted(ids)


def test_ttl_expiry_recontacts():
    _, net = _network()
    ids = list(range(4))
    d = ProbeDispatcher(net, replace(TransportConfig.parity(), inflight_ttl=60.0))
    d.collect(ids, now=0.0)
    d.collect(ids, now=61.0, max_staleness=1e9)
    assert net.stats.probes_attempted == 2 * len(ids)


# ----------------------------------------------------------------------
# In-flight attachment
# ----------------------------------------------------------------------
def test_inflight_waiters_share_one_contact():
    _, net = _network()
    ids = list(range(6))
    d = ProbeDispatcher(net, TransportConfig(seed=5, inflight_ttl=0.0, cooldown_seconds=0.0))
    r1 = d.submit(ids, now=0.0)
    r2 = d.submit(ids, now=0.0)
    assert sorted(r2.deduped) == sorted(ids)
    d.drain([r1, r2])
    assert r1.resolved and r2.resolved
    assert net.stats.probes_attempted == len(ids)
    assert r1.readings == r2.readings
    assert d.stats.dedup_inflight == len(ids)


@pytest.mark.parametrize(
    "config",
    [
        TransportConfig.parity(),
        replace(TransportConfig.parity(), max_retries=2),
        TransportConfig(seed=5, inflight_ttl=0.0, cooldown_seconds=0.0),
    ],
    ids=["sync", "retries", "overlap"],
)
def test_draining_a_waiter_alone_runs_the_round_it_waits_on(config):
    """``drain([waiter])`` while the waiter's shared sensor is the owner
    round's to contact: the owner runs too, and both resolve whole."""
    _, net = _network()
    s0, s1, s2 = range(3)
    d = ProbeDispatcher(net, config)
    owner = d.submit([s0, s1], now=0.0)
    waiter = d.submit([s1, s2], now=0.0)
    assert waiter.deduped == [s1]
    d.drain([waiter])
    assert owner.resolved and waiter.resolved
    assert set(owner.readings) == {s0, s1}
    assert set(waiter.readings) == {s1, s2}
    assert owner.readings[s1] is waiter.readings[s1]
    assert net.stats.probes_attempted == 3


# ----------------------------------------------------------------------
# Retry / backoff
# ----------------------------------------------------------------------
def test_retries_bounded_and_metered():
    _, net = _network(availability=0.0)
    sid = 0
    d = ProbeDispatcher(
        net,
        TransportConfig(
            seed=2, max_retries=3, inflight_ttl=0.0, cooldown_seconds=0.0
        ),
    )
    rnd = d.collect([sid], now=0.0)
    assert rnd.unavailable == [sid]
    assert net.stats.probes_attempted == 4  # 1 + 3 retries
    assert net.stats.probes_retried == 3
    assert rnd.retries_by_sensor == {sid: 3}
    # Backoff delays (0.5 + 1 + 2, each within the jitter) are part of
    # the round's makespan.
    backoff = sum(BACKOFF_BASE * BACKOFF_MULTIPLIER**k for k in range(3))
    assert rnd.latency_seconds > backoff * (1.0 - BACKOFF_JITTER)


def test_availability_recorded_once_per_logical_probe():
    _, net = _network(availability=0.0)
    sid = 0
    d = ProbeDispatcher(
        net,
        TransportConfig(seed=2, max_retries=4, inflight_ttl=0.0, cooldown_seconds=0.0),
    )
    d.collect([sid], now=0.0)
    assert net.stats.probes_attempted == 5
    assert observed_probes(net.availability_model, sid) == 1


def test_eventual_success_records_one_success():
    # availability 0.5: with enough retries some sensor fails first and
    # succeeds later; its history must show exactly one (successful)
    # logical outcome.
    _, net = _network(availability=0.5, seed=9)
    ids = list(range(30))
    d = ProbeDispatcher(
        net,
        TransportConfig(seed=2, max_retries=6, inflight_ttl=0.0, cooldown_seconds=0.0),
    )
    rnd = d.collect(ids, now=0.0)
    assert rnd.retries > 0, "seed expected to produce at least one retry"
    retried_successes = [
        sid for sid in rnd.retries_by_sensor if sid in rnd.readings
    ]
    assert retried_successes, "expected a retried-then-successful sensor"
    model = net.availability_model
    for sid in ids:
        assert observed_probes(model, sid) == 1
    for sid in retried_successes:
        assert model.estimate(sid) > 0.5  # one success, zero failures


# ----------------------------------------------------------------------
# Cooldown
# ----------------------------------------------------------------------
def test_cooldown_skips_low_availability_sensor():
    _, net = _network(availability=0.0)
    ids = list(range(5))
    cfg = replace(TransportConfig.parity(), cooldown_seconds=300.0)
    d = ProbeDispatcher(net, cfg)
    d.collect(ids, now=0.0)  # fails; estimate drops to 1/3 < threshold
    rnd = d.collect(ids, now=30.0)
    assert sorted(rnd.cooldown_skipped) == sorted(ids)
    assert not rnd.readings and not rnd.unavailable
    assert net.stats.probes_attempted == len(ids)
    assert net.stats.probes_cooldown_skipped == len(ids)
    # Past the cooldown horizon the sensor is contacted again.
    later = d.collect(ids, now=301.0)
    assert not later.cooldown_skipped
    assert net.stats.probes_attempted == 2 * len(ids)


def test_reliable_sensor_never_cools_down():
    _, net = _network(availability=1.0)
    sid = 0
    # Seed a strong positive history, then force one failure via a
    # zero-availability twin sensor id… simpler: a healthy sensor that
    # succeeds never enters the failure path at all.
    d = ProbeDispatcher(net, replace(TransportConfig.parity(), cooldown_seconds=300.0))
    d.collect([sid], now=0.0)
    rnd = d.collect([sid], now=30.0, max_staleness=10.0)
    assert not rnd.cooldown_skipped


# ----------------------------------------------------------------------
# Overlap + streaming ingestion
# ----------------------------------------------------------------------
def _tree_with_dispatcher(config, availability=1.0, seed=3, **net_kw):
    registry = make_registry(n=80, availability=availability, seed=11)
    model = AvailabilityModel()
    net = SensorNetwork(registry.all(), availability_model=model, seed=seed, **net_kw)
    tree = COLRTree(registry.all(), CFG, network=net, availability_model=model)
    tree.transport = ProbeDispatcher(net, config)
    return tree, net


def test_streaming_ingestion_populates_cache():
    tree, net = _tree_with_dispatcher(TransportConfig(seed=4), latency_jitter=0.2)
    ids = list(range(80))
    assert len(ids) > STREAM_CHUNK
    rnd = tree.transport.collect(ids, now=0.0, tree=tree)
    assert rnd.resolved
    assert len(rnd.readings) == len(ids)
    assert rnd.maintenance_ops > 0
    assert tree.cached_reading_count == len(ids)
    # One flush per full chunk, one for the remainder at round end.
    assert tree.transport.stats.stream_flushes == -(-len(ids) // STREAM_CHUNK)
    assert tree.transport.stats.streamed_readings == len(ids)


def test_streamed_cache_state_matches_sync_ingestion():
    # Same readings through streaming chunks vs one synchronous batch:
    # identical leaf contents and equivalent aggregates.
    tree_a, net_a = _tree_with_dispatcher(TransportConfig(seed=4))
    registry = make_registry(n=80, availability=1.0, seed=11)
    net_b = SensorNetwork(registry.all(), availability_model=AvailabilityModel(), seed=3)
    tree_b = COLRTree(registry.all(), CFG, network=net_b, availability_model=AvailabilityModel())
    ids = list(range(80))
    assert len(ids) > STREAM_CHUNK
    tree_a.transport.collect(ids, now=0.0, tree=tree_a)
    result = net_b.probe(ids, now=0.0)
    tree_b.insert_readings_batch(list(result.readings.values()), fetched_at=0.0)
    assert tree_a.cached_reading_count == tree_b.cached_reading_count
    for node_a, node_b in zip(tree_a.root.iter_subtree(), tree_b.root.iter_subtree()):
        if node_a.agg_cache is None or node_b.agg_cache is None:
            continue
        assert slot_ids(node_a.agg_cache) == slot_ids(node_b.agg_cache)
        for slot in slot_ids(node_a.agg_cache):
            sa, sb = node_a.agg_cache.sketch(slot), node_b.agg_cache.sketch(slot)
            assert sa.count == sb.count
            assert sa.total == pytest.approx(sb.total)
            assert sa.minimum == sb.minimum
            assert sa.maximum == sb.maximum


def test_overlapping_rounds_share_connections():
    _, net = _network(n=120, latency_jitter=0.3, seed=6)
    d = ProbeDispatcher(net, TransportConfig(seed=8, inflight_ttl=0.0, cooldown_seconds=0.0))
    all_ids = list(range(120))
    r1 = d.submit(all_ids[:40], now=0.0)
    r2 = d.submit(all_ids[40:80], now=0.0)
    r3 = d.submit(all_ids[80:], now=0.0)
    d.drain()
    assert r1.resolved and r2.resolved and r3.resolved
    assert d.stats.overlapped_rounds == 2
    # The tick's makespan beats running the three rounds back to back.
    makespan = max(r.latency_seconds for r in (r1, r2, r3))
    sequential = sum(r.latency_seconds for r in (r1, r2, r3))
    assert makespan < sequential


def test_empty_round_resolves_immediately():
    _, net = _network()
    d = ProbeDispatcher(net, TransportConfig(seed=1))
    rnd = d.submit([], now=0.0)
    assert rnd.resolved
    assert rnd.latency_seconds == 0.0
    d.drain()  # no-op


def test_unknown_sensor_raises():
    _, net = _network()
    d = ProbeDispatcher(net, TransportConfig.parity())
    with pytest.raises(KeyError):
        d.collect([999_999], now=0.0)
