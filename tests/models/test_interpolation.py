import numpy as np
import pytest

from repro import GeoPoint
from repro.models import IDWModel


def ramp_samples(n=50, seed=0):
    """Samples from the plane f(x, y) = 2x + 3y."""
    rng = np.random.default_rng(seed)
    pts = [GeoPoint(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))) for _ in range(n)]
    vals = [2 * p.x + 3 * p.y for p in pts]
    return pts, vals


class TestIDW:
    def test_requires_fit(self):
        with pytest.raises(ValueError):
            IDWModel().predict(GeoPoint(0, 0))

    def test_snap_to_exact_sample(self):
        model = IDWModel()
        model.fit([GeoPoint(1, 1), GeoPoint(5, 5)], [10.0, 50.0])
        assert model.predict(GeoPoint(1, 1)) == 10.0

    def test_interpolates_between_samples(self):
        model = IDWModel()
        model.fit([GeoPoint(0, 0), GeoPoint(10, 0)], [0.0, 100.0])
        mid = model.predict(GeoPoint(5, 0))
        assert mid == pytest.approx(50.0)

    def test_closer_sample_dominates(self):
        model = IDWModel()
        model.fit([GeoPoint(0, 0), GeoPoint(10, 0)], [0.0, 100.0])
        assert model.predict(GeoPoint(1, 0)) < 30.0

    def test_smooth_field_recovered(self):
        pts, vals = ramp_samples(200)
        model = IDWModel()
        model.fit(pts, vals)
        rng = np.random.default_rng(1)
        errs = []
        for _ in range(50):
            q = GeoPoint(float(rng.uniform(1, 9)), float(rng.uniform(1, 9)))
            truth = 2 * q.x + 3 * q.y
            errs.append(abs(model.predict(q) - truth))
        assert np.mean(errs) < 3.0

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            IDWModel(power=0)

    def test_mismatched_fit_rejected(self):
        with pytest.raises(ValueError):
            IDWModel().fit([GeoPoint(0, 0)], [1.0, 2.0])
