import numpy as np
import pytest

from repro.geometry.point import haversine_miles
from repro.workloads import Corridor, HighwayWorkload, default_corridors
from repro.workloads.cities import CITIES


class TestCorridors:
    def test_default_backbone_nonempty(self):
        corridors = default_corridors()
        assert corridors
        for c in corridors:
            assert c.length_miles <= 450.0

    def test_corridor_length(self):
        seattle = next(c for c in CITIES if c.name == "Seattle")
        portland = next(c for c in CITIES if c.name == "Portland")
        corridor = Corridor(start=seattle, end=portland)
        assert 140 <= corridor.length_miles <= 150

    def test_larger_n_more_corridors(self):
        assert len(default_corridors(n=30)) >= len(default_corridors(n=5))


class TestHighwayWorkload:
    def test_sensor_count_scales_with_spacing(self):
        corridors = default_corridors(n=5)
        dense = HighwayWorkload(corridors=corridors, spacing_miles=1.0).sensors()
        sparse = HighwayWorkload(corridors=corridors, spacing_miles=10.0).sensors()
        assert len(dense) > 3 * len(sparse)

    def test_sensors_near_their_corridor(self):
        corridors = default_corridors(n=3)
        wl = HighwayWorkload(corridors=corridors, lateral_jitter_miles=0.1, seed=1)
        for sensor in wl.sensors():
            # Within a few miles of *some* corridor endpoint-to-endpoint
            # band: check distance to the nearest corridor endpoint is
            # bounded by the corridor length.
            nearest = min(
                min(
                    haversine_miles(sensor.location.lat, sensor.location.lon, c.start.lat, c.start.lon),
                    haversine_miles(sensor.location.lat, sensor.location.lon, c.end.lat, c.end.lon),
                )
                for c in corridors
            )
            assert nearest <= max(c.length_miles for c in corridors)

    def test_ids_dense_from_start(self):
        wl = HighwayWorkload(corridors=default_corridors(n=3), seed=1)
        sensors = wl.sensors(start_id=100)
        assert sensors[0].sensor_id == 100
        assert [s.sensor_id for s in sensors] == list(
            range(100, 100 + len(sensors))
        )

    def test_all_sensors_typed_traffic(self):
        wl = HighwayWorkload(corridors=default_corridors(n=3))
        assert all(s.sensor_type == "traffic" for s in wl.sensors())

    def test_linear_distribution(self):
        """Traffic sensors must be line-like, not blob-like: the
        covariance of positions along one corridor is dominated by a
        single direction."""
        corridors = [default_corridors(n=3)[0]]
        wl = HighwayWorkload(corridors=corridors, lateral_jitter_miles=0.05, seed=2)
        pts = np.array([[s.location.x, s.location.y] for s in wl.sensors()])
        cov = np.cov(pts.T)
        eigvals = np.sort(np.linalg.eigvalsh(cov))
        assert eigvals[1] > 50 * max(eigvals[0], 1e-12)

    def test_invalid_spacing_rejected(self):
        with pytest.raises(ValueError):
            HighwayWorkload(spacing_miles=0.0)

    def test_empty_corridors_rejected(self):
        with pytest.raises(ValueError):
            HighwayWorkload(corridors=[])
