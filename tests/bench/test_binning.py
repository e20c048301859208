import numpy as np
import pytest

from repro import GeoPoint, Rect, Sensor
from repro.bench.binning import bin_by_result_size, ideal_result_sizes
from repro.workloads.livelocal import QuerySpec


def spec(rect):
    return QuerySpec(region=rect, at_time=0.0, staleness_seconds=60.0, sample_size=10)


def grid_sensors(n_side=10):
    return [
        Sensor(sensor_id=i * n_side + j, location=GeoPoint(float(i), float(j)), expiry_seconds=60.0)
        for i in range(n_side)
        for j in range(n_side)
    ]


class TestIdealResultSizes:
    def test_exact_counts(self):
        sensors = grid_sensors()
        queries = [spec(Rect(0, 0, 4.5, 4.5)), spec(Rect(0, 0, 9, 9)), spec(Rect(20, 20, 30, 30))]
        sizes = ideal_result_sizes(sensors, queries)
        assert sizes.tolist() == [25, 100, 0]

    def test_empty_sensors(self):
        sizes = ideal_result_sizes([], [spec(Rect(0, 0, 1, 1))])
        assert sizes.tolist() == [0]

    def test_boundary_inclusive(self):
        sensors = [Sensor(sensor_id=0, location=GeoPoint(1, 1), expiry_seconds=60.0)]
        assert ideal_result_sizes(sensors, [spec(Rect(1, 1, 2, 2))]).tolist() == [1]


class TestBinning:
    def test_zero_bin_separated(self):
        sizes = np.array([0, 0, 5, 50])
        bins = bin_by_result_size(sizes, [1.0, 3.0, 10.0, 20.0])
        assert bins[0].low == 0 and bins[0].high == 0
        assert bins[0].n_queries == 2
        assert bins[0].mean_value == pytest.approx(2.0)

    def test_all_queries_assigned(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(0, 1000, 200)
        values = rng.uniform(0, 10, 200)
        bins = bin_by_result_size(sizes, values)
        assert sum(b.n_queries for b in bins) == 200

    def test_log_spaced_edges_monotone(self):
        sizes = np.array([1, 5, 20, 100, 900])
        bins = bin_by_result_size(sizes, [0.0] * 5)
        lows = [b.low for b in bins]
        assert lows == sorted(lows)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bin_by_result_size(np.array([1, 2]), [1.0])

    def test_empty_input(self):
        assert bin_by_result_size(np.array([], dtype=np.int64), []) == []
