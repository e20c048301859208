"""The Section IV-C utility/cost model (Figure 2)."""

import numpy as np
import pytest

from repro.core.slot_sizing import (
    SlotSizeModel,
    default_delta_grid,
    optimal_slot_size,
)


def uniform_model(**overrides):
    rng = np.random.default_rng(0)
    samples = tuple(float(x) for x in rng.uniform(0.01, 1.0, 2000))
    params = dict(expiry_samples=samples, query_window=0.5, update_fraction=0.3, collection_cost=20.0)
    params.update(overrides)
    return SlotSizeModel(**params)


class TestValidation:
    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            SlotSizeModel(expiry_samples=())

    def test_unnormalized_samples_rejected(self):
        with pytest.raises(ValueError):
            SlotSizeModel(expiry_samples=(1.5,))
        with pytest.raises(ValueError):
            SlotSizeModel(expiry_samples=(0.0,))

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SlotSizeModel(expiry_samples=(0.5,), query_window=0.0)

    def test_delta_out_of_range_rejected(self):
        m = uniform_model()
        with pytest.raises(ValueError):
            m.cost(0.0)
        with pytest.raises(ValueError):
            m.utility(1.5)


class TestCostFormula:
    def test_cost_matches_paper_expression(self):
        m = uniform_model(query_window=0.5, update_fraction=0.3, collection_cost=20.0)
        delta = 0.2
        # floor(0.5/0.2)=2 slots, ceil=3 touched, residue 0.5-0.4=0.1.
        expected = 2 + 3 * 0.3 + 0.1 * 20.0
        assert m.cost(delta) == pytest.approx(expected)

    def test_large_slots_leave_residue_to_collect(self):
        m = uniform_model(query_window=0.5)
        # Δ=0.8 > T: zero whole slots, whole window collected raw.
        assert m.cost(0.8) == pytest.approx(0 + 1 * 0.3 + 0.5 * 20.0)

    def test_exact_division_has_no_residue(self):
        m = uniform_model(query_window=0.5, collection_cost=100.0)
        assert m.cost(0.25) == pytest.approx(2 + 2 * 0.3)


class TestUtility:
    def test_tiny_slots_maximize_utility(self):
        m = uniform_model()
        assert m.utility(0.05) > m.utility(0.5) > m.utility(0.99)

    def test_single_slot_has_zero_utility(self):
        """With Δ = 1 every expiry lands in slot 1 and aggregated data
        is discarded as soon as the window slides: zero usable lifetime."""
        m = uniform_model()
        assert m.utility(1.0) == pytest.approx(0.0)

    def test_utility_of_long_expiries_higher(self):
        short = SlotSizeModel(expiry_samples=tuple([0.1] * 100))
        long = SlotSizeModel(expiry_samples=tuple([0.9] * 100))
        assert long.utility(0.2) > short.utility(0.2)


class TestOptimum:
    def test_uniform_optimum_is_interior(self):
        m = uniform_model()
        best = optimal_slot_size(m)
        assert 0.1 <= best <= 0.9

    def test_short_expiry_workload_prefers_smaller_slots(self):
        rng = np.random.default_rng(1)
        short = SlotSizeModel(
            expiry_samples=tuple(float(x) for x in rng.uniform(0.02, 0.3, 1000))
        )
        long = SlotSizeModel(
            expiry_samples=tuple(float(x) for x in rng.uniform(0.7, 1.0, 1000))
        )
        assert optimal_slot_size(short) < optimal_slot_size(long)

    def test_default_grid(self):
        grid = default_delta_grid()
        assert grid[0] > 0 and grid[-1] < 1
        assert grid == sorted(grid)

    def test_from_workload_normalizes(self):
        m = SlotSizeModel.from_workload(
            expiry_seconds=[60.0, 300.0, 600.0],
            t_max=600.0,
            query_window_seconds=300.0,
        )
        assert m.query_window == pytest.approx(0.5)
        assert max(m.expiry_samples) == pytest.approx(1.0)

    def test_from_workload_bad_tmax(self):
        with pytest.raises(ValueError):
            SlotSizeModel.from_workload([1.0], t_max=0.0, query_window_seconds=1.0)
