import pytest

from repro import GeoPoint, Sensor, SensorRegistry


class TestRegistration:
    def test_ids_dense_and_increasing(self):
        reg = SensorRegistry()
        s0 = reg.register(GeoPoint(0, 0), 300.0)
        s1 = reg.register(GeoPoint(1, 1), 300.0)
        assert (s0.sensor_id, s1.sensor_id) == (0, 1)

    def test_metadata_stored_sorted(self):
        reg = SensorRegistry()
        s = reg.register(GeoPoint(0, 0), 300.0, metadata={"b": "2", "a": "1"})
        assert s.metadata == (("a", "1"), ("b", "2"))

    def test_register_all_rejects_duplicates(self):
        reg = SensorRegistry()
        s = reg.register(GeoPoint(0, 0), 300.0)
        with pytest.raises(ValueError):
            reg.register_all([s])

    def test_register_all_advances_ids(self):
        reg = SensorRegistry()
        reg.register_all(
            [Sensor(sensor_id=5, location=GeoPoint(0, 0), expiry_seconds=60.0)]
        )
        s = reg.register(GeoPoint(1, 1), 60.0)
        assert s.sensor_id == 6

    def test_unregister(self):
        reg = SensorRegistry()
        s = reg.register(GeoPoint(0, 0), 300.0)
        reg.unregister(s.sensor_id)
        assert s.sensor_id not in {x.sensor_id for x in reg.all()}
        with pytest.raises(KeyError):
            reg.unregister(s.sensor_id)


class TestLookup:
    @pytest.fixture
    def reg(self) -> SensorRegistry:
        reg = SensorRegistry()
        for i in range(10):
            reg.register(
                GeoPoint(float(i), float(i)),
                300.0,
                sensor_type="water" if i % 2 == 0 else "weather",
            )
        return reg

    def test_len_and_iter(self, reg):
        assert len(reg) == 10
        assert len(list(reg)) == 10

    def test_all_in_id_order(self, reg):
        ids = [s.sensor_id for s in reg.all()]
        assert ids == sorted(ids)
