import pytest

from repro import AvailabilityModel, GeoPoint, Sensor, SensorNetwork
from tests.conftest import observed_probes


def make_sensors(n=10, availability=1.0):
    return [
        Sensor(
            sensor_id=i,
            location=GeoPoint(float(i), 0.0),
            expiry_seconds=300.0,
            availability=availability,
        )
        for i in range(n)
    ]


class TestProbe:
    def test_all_available_all_answer(self):
        net = SensorNetwork(make_sensors(10))
        result = net.probe(range(10), now=100.0)
        assert len(result.readings) == 10
        assert result.unavailable == () and result.timed_out == ()

    def test_readings_stamped_and_expiring(self):
        net = SensorNetwork(make_sensors(3))
        result = net.probe([0, 1, 2], now=50.0)
        for r in result.readings.values():
            assert r.timestamp == 50.0
            assert r.expires_at == 350.0

    def test_unavailable_sensors_fail(self):
        net = SensorNetwork(make_sensors(200, availability=0.0), seed=0)
        result = net.probe(range(200), now=0.0)
        assert len(result.readings) == 0
        assert len(result.unavailable) + len(result.timed_out) == 200

    def test_partial_availability_roughly_matches(self):
        net = SensorNetwork(make_sensors(2000, availability=0.7), seed=1)
        result = net.probe(range(2000), now=0.0)
        assert 0.65 <= len(result.readings) / 2000 <= 0.75

    def test_unknown_sensor_rejected(self):
        net = SensorNetwork(make_sensors(3))
        with pytest.raises(KeyError):
            net.probe([99], now=0.0)

    def test_duplicate_sensor_ids_rejected(self):
        sensors = make_sensors(2) + make_sensors(1)
        with pytest.raises(ValueError):
            SensorNetwork(sensors)

    def test_outcomes_recorded_in_availability_model(self):
        model = AvailabilityModel()
        net = SensorNetwork(make_sensors(5), availability_model=model, seed=0)
        net.probe(range(5), now=0.0)
        assert all(observed_probes(model, i) == 1 for i in range(5))


class TestLatencyModel:

    def test_probe_accumulates_stats(self):
        net = SensorNetwork(make_sensors(10))
        net.probe(range(10), now=0.0)
        net.probe(range(5), now=1.0)
        assert net.stats.probes_attempted == 15
        assert net.stats.batches == 2
        assert net.stats.per_sensor_probes[0] == 2

    def test_custom_value_fn(self):
        net = SensorNetwork(make_sensors(2), value_fn=lambda s, t: s.sensor_id * 10.0)
        result = net.probe([0, 1], now=0.0)
        assert result.readings[1].value == 10.0
