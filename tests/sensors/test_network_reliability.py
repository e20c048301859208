"""Latency jitter, probe timeouts, and decayed availability tracking."""

import numpy as np
import pytest

from repro import AvailabilityModel, GeoPoint, Sensor, SensorNetwork
from tests.conftest import observed_probes


def make_sensors(n=100, availability=1.0):
    return [
        Sensor(
            sensor_id=i,
            location=GeoPoint(float(i), 0.0),
            expiry_seconds=300.0,
            availability=availability,
        )
        for i in range(n)
    ]


class TestLatencyJitter:
    def test_zero_jitter_deterministic(self):
        net = SensorNetwork(make_sensors(), rtt_seconds=0.2, parallelism=10)
        r1 = net.probe(range(25), now=0.0)
        assert r1.latency_seconds == pytest.approx(0.2 * 3)

    def test_jitter_produces_varied_latency(self):
        net = SensorNetwork(
            make_sensors(), rtt_seconds=0.2, parallelism=10, latency_jitter=0.5, seed=1
        )
        l1 = net.probe(range(25), now=0.0).latency_seconds
        l2 = net.probe(range(25), now=1.0).latency_seconds
        assert l1 != l2
        # Round maxima dominate: jittered batches are slower on average
        # than the deterministic baseline.
        assert l1 > 0.2 * 3 * 0.5

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            SensorNetwork(make_sensors(5), latency_jitter=-0.1)


class TestTimeouts:
    def test_timeouts_cause_failures(self):
        # Huge jitter + a tight timeout: many probes must fail even
        # though every sensor is "available".
        net = SensorNetwork(
            make_sensors(1000),
            rtt_seconds=0.2,
            latency_jitter=1.0,
            timeout_seconds=0.2,
            seed=2,
        )
        result = net.probe(range(1000), now=0.0)
        assert len(result.unavailable) + len(result.timed_out) > 200

    def test_no_timeout_all_succeed(self):
        net = SensorNetwork(
            make_sensors(200), rtt_seconds=0.2, latency_jitter=1.0, seed=2
        )
        result = net.probe(range(200), now=0.0)
        assert result.unavailable == () and result.timed_out == ()

    def test_timeouts_recorded_as_unavailability(self):
        model = AvailabilityModel()
        net = SensorNetwork(
            make_sensors(500),
            availability_model=model,
            rtt_seconds=0.2,
            latency_jitter=1.5,
            timeout_seconds=0.1,
            seed=3,
        )
        net.probe(range(500), now=0.0)
        mean = model.mean_estimate(list(range(500)))
        assert mean < 0.9  # the model learned the fleet looks flaky

    def test_timeout_caps_round_latency(self):
        net = SensorNetwork(
            make_sensors(100),
            rtt_seconds=0.2,
            parallelism=100,
            latency_jitter=2.0,
            timeout_seconds=0.5,
            seed=4,
        )
        result = net.probe(range(100), now=0.0)
        assert result.latency_seconds <= 0.5 + 1e-9

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            SensorNetwork(make_sensors(5), timeout_seconds=0.0)


class TestDecayedAvailability:
    def test_decay_bounds_validated(self):
        with pytest.raises(ValueError):
            AvailabilityModel(decay=0.0)
        with pytest.raises(ValueError):
            AvailabilityModel(decay=1.5)

    def test_decayed_estimate_tracks_drift(self):
        """A fleet that dies mid-history: the decayed estimator follows,
        the all-history one lags."""
        plain = AvailabilityModel()
        decayed = AvailabilityModel(decay=0.9)
        for _ in range(200):  # healthy era
            plain.record(1, True)
            decayed.record(1, True)
        for _ in range(30):  # the sensor dies
            plain.record(1, False)
            decayed.record(1, False)
        assert decayed.estimate(1) < 0.15
        assert plain.estimate(1) > 0.7

    def test_decayed_estimate_recovers(self):
        decayed = AvailabilityModel(decay=0.9)
        for _ in range(50):
            decayed.record(1, False)
        for _ in range(50):
            decayed.record(1, True)
        assert decayed.estimate(1) > 0.85

    def test_effective_window_bounded(self):
        """With decay λ the weighted history converges to 1/(1-λ)."""
        model = AvailabilityModel(decay=0.9)
        for _ in range(1000):
            model.record(1, True)
        assert observed_probes(model, 1) == pytest.approx(10, abs=1)

    def test_plain_model_unchanged(self):
        model = AvailabilityModel()
        for _ in range(100):
            model.record(1, True)
        assert observed_probes(model, 1) == 100
