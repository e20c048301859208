import numpy as np
import pytest

from repro.workloads import CITIES, LiveLocalWorkload


class TestCities:
    def test_coordinates_plausible(self):
        for city in CITIES:
            assert 20 <= city.lat <= 65
            assert -160 <= city.lon <= -65
            assert city.population > 0


class TestSensors:
    def test_count_and_ids_dense(self):
        wl = LiveLocalWorkload(n_sensors=500, n_queries=0, seed=1)
        sensors = wl.sensors()
        assert len(sensors) == 500
        assert [s.sensor_id for s in sensors] == list(range(500))

    def test_population_skew(self):
        """Big metros must get disproportionately many sensors."""
        wl = LiveLocalWorkload(n_sensors=5000, n_queries=0, seed=1)
        sensors = wl.sensors()
        nyc = CITIES[0]
        near_nyc = sum(
            1
            for s in sensors
            if abs(s.location.lat - nyc.lat) < 1 and abs(s.location.lon - nyc.lon) < 1
        )
        assert near_nyc / 5000 > 0.10  # NYC holds ~13% of embedded population

    def test_callable_expiry(self):
        wl = LiveLocalWorkload(
            n_sensors=200,
            n_queries=0,
            expiry_seconds=lambda rng: rng.uniform(60, 600),
            seed=1,
        )
        expiries = {s.expiry_seconds for s in wl.sensors()}
        assert len(expiries) > 100

    def test_availability_clamped(self):
        wl = LiveLocalWorkload(
            n_sensors=100,
            n_queries=0,
            availability=lambda rng: rng.normal(0.9, 0.3),
            seed=1,
        )
        assert all(0.0 <= s.availability <= 1.0 for s in wl.sensors())

    def test_deterministic(self):
        a = LiveLocalWorkload(n_sensors=100, n_queries=0, seed=5).sensors()
        b = LiveLocalWorkload(n_sensors=100, n_queries=0, seed=5).sensors()
        assert all(x.location == y.location for x, y in zip(a, b))


class TestQueries:
    def test_count_and_ordering(self):
        wl = LiveLocalWorkload(n_sensors=10, n_queries=300, seed=2)
        queries = wl.queries()
        assert len(queries) == 300
        times = [q.at_time for q in queries]
        assert times == sorted(times)

    def test_locality_produces_repeats(self):
        wl = LiveLocalWorkload(
            n_sensors=10, n_queries=500, revisit_probability=0.5, seed=2
        )
        regions = [
            (q.region.min_x, q.region.min_y, q.region.max_x, q.region.max_y)
            for q in wl.queries()
        ]
        assert len(set(regions)) < len(regions) * 0.8

    def test_no_locality_when_disabled(self):
        wl = LiveLocalWorkload(
            n_sensors=10, n_queries=300, revisit_probability=0.0, seed=2
        )
        regions = [
            (q.region.min_x, q.region.min_y, q.region.max_x, q.region.max_y)
            for q in wl.queries()
        ]
        assert len(set(regions)) == len(regions)

    def test_viewports_have_varied_zoom(self):
        wl = LiveLocalWorkload(n_sensors=10, n_queries=400, seed=3)
        widths = [q.region.width for q in wl.queries()]
        assert max(widths) / max(1e-9, min(widths)) > 10

    def test_spec_fields(self):
        wl = LiveLocalWorkload(
            n_sensors=10,
            n_queries=5,
            staleness_seconds=240.0,
            sample_size=77,
            seed=3,
        )
        for q in wl.queries():
            assert q.staleness_seconds == 240.0
            assert q.sample_size == 77

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LiveLocalWorkload(n_sensors=0)
        with pytest.raises(ValueError):
            LiveLocalWorkload(revisit_probability=1.5)
