import pytest

from repro import AvailabilityModel
from tests.conftest import observed_probes


class TestEstimates:
    def test_unknown_sensor_uses_prior(self):
        model = AvailabilityModel()
        assert model.estimate(42) == pytest.approx(0.5)

    def test_estimate_converges_to_true_rate(self):
        model = AvailabilityModel()
        for i in range(1000):
            model.record(1, success=i % 10 != 0)  # 90% up
        assert model.estimate(1) == pytest.approx(0.9, abs=0.02)

    def test_all_failures_stays_positive(self):
        model = AvailabilityModel()
        for _ in range(100):
            model.record(2, success=False)
        assert 0 < model.estimate(2) < 0.05

    def test_seed_bulk_history(self):
        model = AvailabilityModel()
        model.seed(3, successes=80, failures=20)
        assert model.estimate(3) == pytest.approx(0.8, abs=0.02)
        assert observed_probes(model, 3) == 100

    def test_seed_negative_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityModel().seed(1, successes=-1, failures=0)


class TestMeanEstimate:
    def test_empty_set_is_one(self):
        assert AvailabilityModel().mean_estimate([]) == 1.0

    def test_mean_over_mixed_sensors(self):
        model = AvailabilityModel()
        model.seed(1, 99, 1)  # ~0.99
        model.seed(2, 1, 99)  # ~0.02
        mean = model.mean_estimate([1, 2])
        assert mean == pytest.approx(0.5, abs=0.03)

    def test_mean_clamped_away_from_zero(self):
        model = AvailabilityModel(prior_successes=1e-6, prior_failures=0)
        model.seed(1, 0, 10_000)
        assert model.mean_estimate([1]) >= 1e-3
