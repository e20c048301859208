"""Cooldown recovery: a sensor the availability model has written off
must become probeable again once its cooldown expires."""

from __future__ import annotations

from repro import AvailabilityModel, SensorNetwork
from repro.transport import ProbeDispatcher, TransportConfig

from tests.conftest import make_registry


def _dispatcher(registry, **config):
    network = SensorNetwork(
        registry.all(), availability_model=AvailabilityModel(), seed=3
    )
    defaults = dict(
        max_retries=0,
        overlap_enabled=False,
        inflight_ttl=0.0,
        cooldown_seconds=300.0,
    )
    defaults.update(config)
    return ProbeDispatcher(network, TransportConfig(**defaults))


class TestSensorCooldownRecovery:
    def test_written_off_sensor_probeable_again_after_cooldown(self):
        """Dead fleet: one failure each drops the Beta(1,1) estimate to
        1/3 < threshold, so every sensor enters cooldown.  Requests
        inside the window are skipped without traffic; the first request
        after expiry goes back on the wire."""
        registry = make_registry(n=6, availability=0.0, seed=1)
        dispatcher = _dispatcher(registry)
        network = dispatcher.network
        ids = [s.sensor_id for s in registry.all()]

        first = dispatcher.collect(ids, now=0.0)
        assert not first.readings
        assert network.stats.probes_attempted == len(ids)

        during = dispatcher.collect(ids, now=100.0)
        assert sorted(during.cooldown_skipped) == sorted(ids)
        assert dispatcher.stats.cooldown_skips == len(ids)
        assert network.stats.probes_attempted == len(ids), (
            "cooldown window must suppress wire traffic entirely"
        )

        after = dispatcher.collect(ids, now=301.0)  # 0 + 300s expired
        assert not after.cooldown_skipped
        assert network.stats.probes_attempted == 2 * len(ids), (
            "expired cooldown must not keep the sensor written off"
        )

    def test_expired_entry_deleted_and_estimate_recovery_respected(self):
        """After the cooldown expires the table entry is dropped on the
        next submit; if the availability model has meanwhile recovered
        above the threshold, a fresh failure no longer re-arms it."""
        registry = make_registry(n=1, availability=0.0, seed=1)
        dispatcher = _dispatcher(registry)
        sid = registry.all()[0].sensor_id

        dispatcher.collect([sid], now=0.0)
        assert sid in dispatcher._cooldown_ends
        # Operator intervention / long success history elsewhere: the
        # model now believes in the sensor again.
        dispatcher.network.availability_model.seed(sid, successes=20, failures=0)
        assert dispatcher.network.availability_model.estimate(sid) > 0.5

        dispatcher.collect([sid], now=301.0)
        assert sid not in dispatcher._cooldown_ends, (
            "expired entry must be deleted, and a healthy estimate must "
            "not re-arm the cooldown on failure"
        )
        again = dispatcher.collect([sid], now=302.0)
        assert not again.cooldown_skipped

    def test_healthy_estimate_never_enters_cooldown(self):
        registry = make_registry(n=4, availability=0.0, seed=1)
        dispatcher = _dispatcher(registry)
        model = dispatcher.network.availability_model
        ids = [s.sensor_id for s in registry.all()]
        for sid in ids:
            model.seed(sid, successes=10, failures=0)
        dispatcher.collect(ids, now=0.0)
        assert not dispatcher._cooldown_ends
        soon = dispatcher.collect(ids, now=1.0)
        assert not soon.cooldown_skipped
        assert dispatcher.network.stats.probes_attempted == 2 * len(ids)
