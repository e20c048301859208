"""Shared fixtures: small deterministic sensor populations and trees,
and the teardown that no test may orphan a worker process."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import (
    AvailabilityModel,
    COLRTree,
    COLRTreeConfig,
    GeoPoint,
    SensorNetwork,
    SensorRegistry,
)


@pytest.fixture(autouse=True)
def assert_no_orphan_workers():
    """Every test ends with ``multiprocessing.active_children()`` empty:
    a portal that was not closed, a ``close()`` that lost track of a
    worker, or a killed worker reaped behind the module's back fails the
    test that caused it (and the stragglers are killed so it fails only
    that one)."""
    yield
    orphans = multiprocessing.active_children()
    for child in orphans:
        child.kill()
        child.join()
    assert orphans == [], "test left worker processes running"


def make_registry(
    n: int = 400,
    extent: float = 100.0,
    expiry_range: tuple[float, float] = (120.0, 600.0),
    availability: float = 1.0,
    seed: int = 0,
) -> SensorRegistry:
    """A uniform random sensor population over a square region."""
    rng = np.random.default_rng(seed)
    registry = SensorRegistry()
    for _ in range(n):
        registry.register(
            GeoPoint(float(rng.uniform(0, extent)), float(rng.uniform(0, extent))),
            expiry_seconds=float(rng.uniform(*expiry_range)),
            availability=availability,
        )
    return registry


@pytest.fixture
def registry() -> SensorRegistry:
    return make_registry()


@pytest.fixture
def flaky_registry() -> SensorRegistry:
    return make_registry(availability=0.8, seed=7)


def make_tree(
    registry: SensorRegistry,
    config: COLRTreeConfig | None = None,
    network_seed: int = 1,
) -> COLRTree:
    """A tree wired to a network and a shared availability model."""
    model = AvailabilityModel()
    network = SensorNetwork(
        registry.all(), availability_model=model, seed=network_seed
    )
    cfg = config if config is not None else COLRTreeConfig(
        max_expiry_seconds=600.0, slot_seconds=120.0
    )
    return COLRTree(registry.all(), cfg, network=network, availability_model=model)


@pytest.fixture
def tree(registry: SensorRegistry) -> COLRTree:
    return make_tree(registry)


# Observation helpers: what the tests read off the structures, kept here
# rather than as library methods nothing else calls.
def within(registry: SensorRegistry, region) -> list:
    """Brute-force membership oracle: the registered sensors in
    ``region``, in id order."""
    return [s for s in registry.all() if region.contains_point(s.location)]


def leaves(root) -> list:
    """A tree's leaves, depth first."""
    return [node for node in root.iter_subtree() if node.is_leaf]


def slot_ids(cache) -> list[int]:
    """The occupied slot ids of a leaf or aggregate slot cache."""
    return sorted(cache._slots)


def observed_probes(model: AvailabilityModel, sensor_id: int) -> int:
    """How many (decay-weighted) outcomes the model holds for a sensor."""
    history = model._history.get(sensor_id)
    return 0 if history is None else int(round(history.successes + history.failures))


def cached_rows(rel) -> int:
    """Raw readings a relational tree holds in its leaf cache table."""
    return len(rel.db.table(rel.names.leaf_cache))
