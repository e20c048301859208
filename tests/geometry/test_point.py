import math

import pytest

from repro.geometry import GeoPoint, haversine_miles
from repro.geometry.point import miles_to_degrees_lat, miles_to_degrees_lon


class TestGeoPoint:
    def test_lat_lon_aliases(self):
        p = GeoPoint(x=-122.33, y=47.61)
        assert p.lon == -122.33
        assert p.lat == 47.61

    def test_immutability(self):
        p = GeoPoint(0, 0)
        with pytest.raises(AttributeError):
            p.x = 5.0


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_miles(47.6, -122.3, 47.6, -122.3) == 0.0

    def test_seattle_to_portland(self):
        # Roughly 145 miles great-circle.
        d = haversine_miles(47.6062, -122.3321, 45.5152, -122.6784)
        assert 140 <= d <= 150

    def test_one_degree_latitude(self):
        d = haversine_miles(0.0, 0.0, 1.0, 0.0)
        assert 68 <= d <= 70

    def test_symmetry(self):
        d1 = haversine_miles(10, 20, 30, 40)
        d2 = haversine_miles(30, 40, 10, 20)
        assert d1 == pytest.approx(d2)


class TestMileDegreeConversions:
    def test_latitude_inverse(self):
        assert miles_to_degrees_lat(69.0) == pytest.approx(1.0)

    def test_longitude_shrinks_with_latitude(self):
        at_equator = miles_to_degrees_lon(69.0, 0.0)
        at_60 = miles_to_degrees_lon(69.0, 60.0)
        assert at_equator == pytest.approx(1.0)
        assert at_60 == pytest.approx(2.0, rel=0.01)

    def test_longitude_clamped_near_pole(self):
        assert math.isfinite(miles_to_degrees_lon(100.0, 89.9))
