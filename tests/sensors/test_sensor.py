import pytest

from repro import GeoPoint, Reading, Sensor


def make_sensor(**overrides):
    defaults = dict(
        sensor_id=1,
        location=GeoPoint(0, 0),
        expiry_seconds=300.0,
        sensor_type="restaurant",
        availability=0.9,
    )
    defaults.update(overrides)
    return Sensor(**defaults)


class TestSensorValidation:
    def test_valid_sensor(self):
        s = make_sensor()
        assert s.sensor_type == "restaurant"

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            make_sensor(sensor_id=-1)

    def test_non_finite_location_rejected(self):
        for x, y in ((float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 0.0)):
            with pytest.raises(ValueError, match="finite"):
                make_sensor(location=GeoPoint(x, y))

    def test_portal_registration_rejects_nan_location(self):
        """Used to be accepted here and kill ``rebuild_index()`` later with
        ``ValueError: Probabilities contain NaN``."""
        from repro.portal import SensorMapPortal

        portal = SensorMapPortal()
        with pytest.raises(ValueError, match="finite"):
            portal.register_sensor(GeoPoint(float("nan"), 1.0), expiry_seconds=300.0)
        assert len(portal.registry) == 0

    def test_nonpositive_expiry_rejected(self):
        with pytest.raises(ValueError):
            make_sensor(expiry_seconds=0.0)

    def test_availability_bounds(self):
        with pytest.raises(ValueError):
            make_sensor(availability=1.5)
        with pytest.raises(ValueError):
            make_sensor(availability=-0.1)
        make_sensor(availability=0.0)
        make_sensor(availability=1.0)


class TestReading:
    def test_expiry_before_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Reading(sensor_id=1, value=5.0, timestamp=100.0, expires_at=50.0)

    def test_validity_window(self):
        r = Reading(sensor_id=1, value=5.0, timestamp=100.0, expires_at=400.0)
        assert r.is_valid_at(100.0)
        assert r.is_valid_at(399.9)
        assert not r.is_valid_at(400.0)

    def test_freshness_requires_both_conditions(self):
        r = Reading(sensor_id=1, value=5.0, timestamp=100.0, expires_at=400.0)
        assert r.is_fresh_at(150.0, max_staleness=60.0)
        # Stale even though unexpired.
        assert not r.is_fresh_at(200.0, max_staleness=60.0)
        # Expired even though within staleness... requires a long window.
        assert not r.is_fresh_at(401.0, max_staleness=1000.0)
