"""The transport-facing split of ``SensorNetwork.probe``.

``probe()`` must be bit-identical to ``complete_batch(ids,
sample_attempts(ids), now)`` (the dispatcher builds on the two halves),
and ``ProbeResult`` must meter unavailable vs timed-out failures
separately.
"""

from __future__ import annotations

import pytest

from repro import AvailabilityModel, SensorNetwork
from tests.conftest import make_registry, observed_probes


def _network(availability=0.6, seed=3, **kw):
    registry = make_registry(n=120, availability=availability, seed=11)
    return SensorNetwork(
        registry.all(), availability_model=AvailabilityModel(), seed=seed, **kw
    )


def test_probe_equals_sample_plus_complete():
    a = _network(latency_jitter=0.4, timeout_seconds=0.5)
    b = _network(latency_jitter=0.4, timeout_seconds=0.5)
    ids = list(range(80))
    ra = a.probe(ids, now=100.0)
    attempts = b.sample_attempts(ids)
    rb = b.complete_batch(ids, attempts, now=100.0)
    assert ra.readings == rb.readings
    assert ra.unavailable == rb.unavailable
    assert ra.timed_out == rb.timed_out
    assert ra.latency_seconds == rb.latency_seconds
    assert a.stats == b.stats
    for sid in ids:
        assert a.availability_model.estimate(sid) == b.availability_model.estimate(sid)


def test_failure_modes_metered_separately():
    net = _network(availability=0.5, latency_jitter=0.8, timeout_seconds=0.25)
    ids = list(range(120))
    result = net.probe(ids, now=0.0)
    assert result.timed_out, "jittered latencies above the timeout expected"
    assert result.unavailable, "availability 0.5 failures expected"
    assert len(result.readings) + len(result.unavailable) + len(result.timed_out) == len(ids)
    assert net.stats.probes_unavailable == len(result.unavailable)
    assert net.stats.probes_timed_out == len(result.timed_out)
    assert (
        net.stats.probes_succeeded
        + net.stats.probes_unavailable
        + net.stats.probes_timed_out
        == net.stats.probes_attempted
    )


def test_no_timeout_means_no_timed_out():
    net = _network(availability=0.0, latency_jitter=0.0)
    ids = list(range(10))
    result = net.probe(ids, now=0.0)
    assert result.timed_out == ()
    assert len(result.unavailable) == 10


def test_sample_attempts_records_nothing():
    net = _network()
    ids = list(range(20))
    attempts = net.sample_attempts(ids)
    assert len(attempts) == 20
    assert net.stats.probes_attempted == 0
    assert all(observed_probes(net.availability_model, sid) == 0 for sid in ids)


def _columns(attempts):
    return (
        [a.ok for a in attempts],
        [a.timed_out for a in attempts],
        [a.latency_seconds for a in attempts],
    )


@pytest.mark.parametrize("timeout", [None, 0.25, 0.15])
def test_columns_equal_attempts_without_jitter(timeout):
    """No latency draw: the per-contact order and the batch order are
    one stream, so the columns are ``sample_attempts(ids)`` transposed."""
    a = _network(timeout_seconds=timeout)
    b = _network(timeout_seconds=timeout)
    ids = list(range(70))
    for chunk in (ids[:1], ids[1:40], [], ids[40:]):
        assert a.sample_attempts(chunk, columns=True) == _columns(
            b.sample_attempts(chunk)
        )
    assert a._rng.bit_generator.state == b._rng.bit_generator.state


@pytest.mark.parametrize("timeout", [None, 0.25])
def test_columns_are_the_one_at_a_time_stream_with_jitter(timeout):
    """With jitter a contact draws availability then latency, so k
    same-instant contacts are k one-id calls, not one k-id call."""
    a = _network(latency_jitter=0.3, timeout_seconds=timeout)
    b = _network(latency_jitter=0.3, timeout_seconds=timeout)
    ids = list(range(70))
    for chunk in (ids[:1], ids[1:40], [], ids[40:]):
        assert a.sample_attempts(chunk, columns=True) == _columns(
            [b.sample_attempts([sid])[0] for sid in chunk]
        )
    assert a._rng.bit_generator.state == b._rng.bit_generator.state
    if timeout is not None:
        _, timed_out, latencies = a.sample_attempts(ids, columns=True)
        assert any(timed_out) and max(latencies) == timeout


def test_columns_record_nothing_and_reject_unknown_ids():
    net = _network()
    before = net._rng.bit_generator.state
    with pytest.raises(KeyError):
        net.sample_attempts([0, 10**9], columns=True)
    assert net._rng.bit_generator.state == before, "no draw before the id check"
    net.sample_attempts([0, 1, 2], columns=True)
    assert net.stats.probes_attempted == 0
    assert observed_probes(net.availability_model, 0) == 0
