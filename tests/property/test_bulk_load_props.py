"""The array bulk loader builds the per-cluster loader's tree, node for node.

``repro.core.build`` runs Lloyd's centre update as one ``bincount`` pass
per axis over column differences and recurses over one coordinate array
per tree by index; the per-cluster mask + ``mean`` loop and the
per-level coordinate rebuild it replaced are kept verbatim in
``tests/core/reference_build.py``.  The arithmetic is the same — the
same two products and one sum per point/centre pair, per-cluster sums
accumulated in index order — so the two must agree *exactly*: equal
labels, the generator left in an equal state, and trees equal in every
field a query plan, a probe or a modeled second can depend on.

Fleets are the shapes that stress different branches: uniform, the
LiveLocal city mixture, grid-snapped with many coincident points,
collinear, two far blobs, and all-identical locations.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GeoPoint, Sensor
from repro.core import build as build_mod
from repro.core.build import build_colr_tree, kmeans_cluster
from repro.workloads import LiveLocalWorkload

from tests.core import reference_build as reference

LEAF = 32
FANOUTS = (2, 4, 8)
SIZES = (1, 2, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 257, 1000)


# ----------------------------------------------------------------------
# Fleet families: (n, seed) -> (n, 2) float64 locations
# ----------------------------------------------------------------------
def _uniform(n, seed):
    return np.random.default_rng(seed).random((n, 2)) * 100.0


def _city_mixture(n, seed):
    sensors = LiveLocalWorkload(n_sensors=n, n_queries=0, seed=seed).sensors()
    return np.array([[s.location.x, s.location.y] for s in sensors])


def _grid_snapped(n, seed):
    # A 5 x 4 lattice: at most 20 distinct locations however large n is.
    rng = np.random.default_rng(seed)
    return np.column_stack((rng.integers(0, 5, n), rng.integers(0, 4, n))) * 2.5


def _collinear(n, seed):
    t = np.random.default_rng(seed).random(n) * 50.0
    return np.column_stack((t, 3.0 * t + 1.0))


def _two_blobs(n, seed):
    rng = np.random.default_rng(seed)
    far = rng.random(n) < 0.5
    return rng.normal(0.0, 0.5, (n, 2)) + np.where(far, 1.0e4, 0.0)[:, None]


def _identical(n, seed):
    return np.full((n, 2), 7.25)


FAMILIES = {
    "uniform": _uniform,
    "city_mixture": _city_mixture,
    "grid_snapped": _grid_snapped,
    "collinear": _collinear,
    "two_blobs": _two_blobs,
    "identical": _identical,
}


def _sensors(points) -> list[Sensor]:
    return [
        Sensor(sensor_id=i, location=GeoPoint(float(x), float(y)), expiry_seconds=600.0)
        for i, (x, y) in enumerate(points)
    ]


# ----------------------------------------------------------------------
# Equality, field for field
# ----------------------------------------------------------------------
def _box(node):
    b = node.bbox
    return (b.min_x, b.min_y, b.max_x, b.max_y)


def assert_same_tree(built, expected) -> int:
    """Walk both trees in step; returns the node count."""
    pairs = [(built, expected)]
    seen = 0
    while pairs:
        a, b = pairs.pop()
        seen += 1
        assert (a.node_id, a.level, a.weight) == (b.node_id, b.level, b.weight)
        assert _box(a) == _box(b)  # exact floats, no tolerance
        # Sensor is a frozen dataclass: == compares every field.
        assert a.sensors == b.sensors
        assert a.descendant_ids.dtype == b.descendant_ids.dtype
        assert a.descendant_ids.tolist() == b.descendant_ids.tolist()
        assert len(a.children) == len(b.children)
        assert (a.parent is None) == (b.parent is None)
        if a.parent is not None:
            assert a.parent.node_id == b.parent.node_id
        pairs.extend(zip(a.children, b.children))
    return seen


def assert_same_clustering(points, k, seed) -> np.ndarray:
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    labels = kmeans_cluster(points, k, rng)
    expected = reference.kmeans_cluster(points, k, ref_rng)
    assert labels.dtype == expected.dtype
    assert labels.tolist() == expected.tolist()
    # Same number and kind of draws consumed: the streams stay in step.
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()
    return labels


# ----------------------------------------------------------------------
# The grid: every family x size x fanout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fanout", FANOUTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tree_equals_reference(family, n, fanout):
    sensors = _sensors(FAMILIES[family](n, seed=n + fanout))
    built = build_colr_tree(sensors, fanout=fanout, leaf_capacity=LEAF, seed=fanout)
    expected = reference.reference_build_colr_tree(sensors, fanout, LEAF, seed=fanout)
    assert_same_tree(built, expected)


@pytest.mark.parametrize(
    "family,fanout",
    [("uniform", 8), ("uniform", 2), ("city_mixture", 8), ("grid_snapped", 4)],
)
def test_large_tree_equals_reference(family, fanout):
    sensors = _sensors(FAMILIES[family](6000, seed=1))
    built = build_colr_tree(sensors, fanout=fanout, leaf_capacity=LEAF, seed=0)
    expected = reference.reference_build_colr_tree(sensors, fanout, LEAF, seed=0)
    assert assert_same_tree(built, expected) > 6000 // LEAF


def test_sensor_order_and_ids_are_not_assumed_dense():
    # Ids out of order and with gaps: leaves keep list order, node ids
    # and descendant arrays follow the reference.
    rng = np.random.default_rng(5)
    ids = rng.permutation(5000)[:700]
    sensors = [
        Sensor(sensor_id=int(i), location=GeoPoint(float(x), float(y)), expiry_seconds=60.0)
        for i, (x, y) in zip(ids, rng.random((700, 2)) * 10.0)
    ]
    assert_same_tree(
        build_colr_tree(sensors, fanout=4, leaf_capacity=16, seed=9),
        reference.reference_build_colr_tree(sensors, 4, 16, seed=9),
    )


def test_signed_zero_coordinates_keep_the_reference_box():
    points = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]] * 3)
    for order in (points, points[::-1]):
        built = build_colr_tree(_sensors(order), fanout=2, leaf_capacity=LEAF)
        expected = reference.reference_build_colr_tree(_sensors(order), 2, LEAF)
        assert [repr(v) for v in _box(built)] == [repr(v) for v in _box(expected)]


# ----------------------------------------------------------------------
# The kernel: labels and generator state over drawn inputs
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.one_of(st.integers(1, 40), st.integers(41, 1500)),
    k=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_labels_and_generator_state_equal_reference(family, n, k, seed):
    assert_same_clustering(FAMILIES[family](n, seed % 1000), k, seed)


@pytest.mark.parametrize("k", (2, 8))
def test_labels_equal_reference_at_scale(k):
    assert_same_clustering(_uniform(60_000, seed=3), k, seed=k)


def test_non_contiguous_points_cluster_as_their_copy():
    wide = np.random.default_rng(2).random((500, 6))
    view = wide[:, 1:5:3]  # columns 1 and 4: a strided (n, 2) view
    assert not view.flags.c_contiguous
    assert_same_clustering(view, 5, seed=4)


# ----------------------------------------------------------------------
# Branch witnesses: the two rare paths are reached, not assumed reached
# ----------------------------------------------------------------------
@contextmanager
def line_hits(func, marker: str):
    """Count executions of the one source line of ``func`` (nested
    functions included) that contains ``marker``."""
    lines, first = inspect.getsourcelines(func)
    (offset,) = [i for i, line in enumerate(lines) if marker in line]
    filename, target = func.__code__.co_filename, first + offset
    hits = [0]

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits[0] += 1
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        yield hits
    finally:
        sys.settrace(previous)


def test_empty_cluster_reseed_is_reached_and_equal():
    # Three distinct locations, eight clusters: five centres start as
    # duplicates, own no point, and are re-seeded at the farthest point.
    points = np.repeat(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]), 30, axis=0)
    with line_hits(kmeans_cluster, "centers[~occupied] =") as hits:
        kmeans_cluster(points, 8, np.random.default_rng(0))
    with line_hits(reference.kmeans_cluster, "centers[j] = points[farthest]") as ref_hits:
        reference.kmeans_cluster(points, 8, np.random.default_rng(0))
    assert hits[0] >= 1 and ref_hits[0] >= 1
    labels = assert_same_clustering(points, 8, seed=0)
    assert len(set(labels.tolist())) == 3


def test_grid_snapped_fleet_reaches_the_reseed_inside_a_build():
    sensors = _sensors(_grid_snapped(400, seed=0))
    with line_hits(kmeans_cluster, "centers[~occupied] =") as hits:
        built = build_colr_tree(sensors, fanout=8, leaf_capacity=LEAF, seed=0)
    assert hits[0] >= 1
    assert_same_tree(built, reference.reference_build_colr_tree(sensors, 8, LEAF, seed=0))


def test_coincident_even_split_is_reached_and_equal():
    # 100 sensors on one spot cannot be clustered: the builder halves
    # the list (50/50, then 25/25) whatever the fanout.
    sensors = _sensors(_identical(100, seed=0))
    with line_hits(build_mod._build_kmeans, "half = max(1,") as hits:
        built = build_colr_tree(sensors, fanout=8, leaf_capacity=LEAF, seed=0)
    with line_hits(reference._build_kmeans, "half = max(1,") as ref_hits:
        expected = reference.reference_build_colr_tree(sensors, 8, LEAF, seed=0)
    assert hits[0] == ref_hits[0] == 3
    assert [c.weight for c in built.children] == [50, 50]
    assert [[g.weight for g in c.children] for c in built.children] == [[25, 25]] * 2
    assert_same_tree(built, expected)
