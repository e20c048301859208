import numpy as np
import pytest

from repro import (
    AvailabilityModel,
    COLRTree,
    COLRTreeConfig,
    GeoPoint,
    Rect,
    SensorNetwork,
    SensorRegistry,
    SpatialField,
)
from repro.models import InsufficientSupport, ModelView


@pytest.fixture
def field_setup():
    """A smooth field sensed by 400 sensors; tree + view over it."""
    domain = Rect(0, 0, 100, 100)
    field = SpatialField(domain, n_bumps=6, noise_sigma=0.5, seed=5)
    rng = np.random.default_rng(5)
    registry = SensorRegistry()
    for _ in range(400):
        registry.register(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=600.0,
        )
    network = SensorNetwork(
        registry.all(),
        value_fn=lambda s, t: field.sample(s.location, t),
        availability_model=AvailabilityModel(),
        seed=6,
    )
    tree = COLRTree(
        registry.all(),
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        network=network,
    )
    return field, tree


class TestModelView:
    def test_requires_caching_tree(self, field_setup):
        field, tree = field_setup
        from repro import COLRTreeConfig as Cfg

        plain = COLRTree(
            [tree.sensor(s) for s in range(10)], Cfg(caching_enabled=False, sampling_enabled=False)
        )
        with pytest.raises(ValueError):
            ModelView(plain)

    def test_estimate_uses_zero_probes(self, field_setup):
        field, tree = field_setup
        tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=0)
        probes_before = tree.network.stats.probes_attempted
        view = ModelView(tree)
        view.estimate_at(GeoPoint(50, 50), now=1.0, max_staleness=600.0)
        assert tree.network.stats.probes_attempted == probes_before

    def test_estimate_close_to_field(self, field_setup):
        field, tree = field_setup
        tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=0)
        view = ModelView(tree)
        rng = np.random.default_rng(2)
        errs = []
        for _ in range(30):
            p = GeoPoint(float(rng.uniform(10, 90)), float(rng.uniform(10, 90)))
            estimate = view.estimate_at(p, now=1.0, max_staleness=600.0)
            truth = field.mean_value(p, 1.0)
            errs.append(abs(estimate - truth) / abs(truth))
        assert float(np.mean(errs)) < 0.10

    def test_insufficient_support_raises(self, field_setup):
        _, tree = field_setup
        view = ModelView(tree)  # cache is cold
        with pytest.raises(InsufficientSupport):
            view.estimate_at(GeoPoint(50, 50), now=0.0, max_staleness=600.0)

    def test_staleness_respected(self, field_setup):
        _, tree = field_setup
        tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=0)
        view = ModelView(tree)
        # 500s later with a 60s bound, the cached readings are stale.
        with pytest.raises(InsufficientSupport):
            view.estimate_at(GeoPoint(50, 50), now=500.0, max_staleness=60.0)

    def test_invalid_parameters(self, field_setup):
        _, tree = field_setup
        with pytest.raises(ValueError):
            ModelView(tree, min_support=0)
