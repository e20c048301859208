"""A spatial plan keeps its labels as bytes and its overlaps sparse.

A cached plan holds one label byte per node and the overlap fractions
of the nodes its region's bounding box meets; a node missing from that
mapping has an overlap of ``0.0``.  At every node index the plan must
read what the dense arrays it replaced held — ``kernel.classify(region)``
and ``kernel.overlap_fractions(region)`` — including a node the region
misses (DISJOINT) whose box still overlaps the region's box.  And a plan
costs what it holds: a plan that served a SAMPLESIZE viewport on a
1,500-sensor tree costs at most 4 kB (~10 kB with dense lists).
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AvailabilityModel, COLRTree, COLRTreeConfig, SensorNetwork
from repro.core.flat import DISJOINT
from repro.geometry import GeoPoint, Polygon, Rect
from repro.workloads.livelocal import LiveLocalWorkload

from tests.conftest import make_registry, make_tree

EXTENT = 100.0


@pytest.fixture(scope="module")
def tree() -> COLRTree:
    return make_tree(make_registry(n=1500, extent=EXTENT, seed=11))


def _assert_plan_reads_the_dense_arrays(tree: COLRTree, region) -> None:
    kernel = tree.kernel
    labels = kernel.classify(region)
    fractions = kernel.overlap_fractions(region)
    plan = tree.spatial_plan(region)
    assert isinstance(plan.labels, bytes)
    assert list(plan.labels) == labels.tolist()
    overlaps = plan.overlaps(kernel, region)
    assert sorted(overlaps) == np.flatnonzero(fractions).tolist()
    for i, fraction in enumerate(fractions.tolist()):
        assert overlaps.get(i, 0.0) == fraction


_COORD = st.floats(0.0, EXTENT)


@st.composite
def _rects(draw) -> Rect:
    x0, x1 = sorted((draw(_COORD), draw(_COORD)))
    y0, y1 = sorted((draw(_COORD), draw(_COORD)))
    return Rect(x0, y0, x1, y1)


@st.composite
def _polygons(draw) -> Polygon:
    """A convex polygon: points on a circle at distinct whole degrees."""
    cx, cy = draw(_COORD), draw(_COORD)
    radius = draw(st.floats(1.0, 40.0))
    degrees = draw(st.lists(st.integers(0, 359), min_size=3, max_size=8, unique=True))
    angles = np.radians(sorted(degrees))
    return Polygon(
        [
            GeoPoint(cx + radius * float(np.cos(a)), cy + radius * float(np.sin(a)))
            for a in angles
        ]
    )


@settings(max_examples=60, deadline=None)
@given(region=st.one_of(_rects(), _polygons()))
def test_sparse_plan_reads_as_the_dense_arrays(tree, region):
    _assert_plan_reads_the_dense_arrays(tree, region)


def test_a_disjoint_node_keeps_its_positive_overlap(tree):
    """A thin diagonal sliver: its bounding box meets most of the tree,
    the sliver itself few nodes."""
    region = Polygon(
        [GeoPoint(0.0, 0.0), GeoPoint(EXTENT, EXTENT - 1.0), GeoPoint(EXTENT, EXTENT)]
    )
    _assert_plan_reads_the_dense_arrays(tree, region)
    plan = tree.spatial_plan(region)
    overlaps = plan.overlaps(tree.kernel, region)
    kept = [i for i in overlaps if plan.labels[i] == DISJOINT]
    assert kept and all(overlaps[i] > 0.0 for i in kept)


def test_a_sampled_plan_costs_at_most_4kb():
    """Mean all-in bytes of the plans a stream of SAMPLESIZE viewports
    leaves cached, from what clearing the plan cache frees."""
    workload = LiveLocalWorkload(
        n_sensors=1500, n_queries=60, revisit_probability=0.0, seed=3
    )
    sensors = workload.sensors()
    model = AvailabilityModel()
    tree = COLRTree(
        sensors,
        COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        network=SensorNetwork(sensors, availability_model=model, seed=1),
        availability_model=model,
    )
    gc.collect()
    tracemalloc.start()
    try:
        for spec in workload.queries():
            tree.query(
                spec.region, spec.at_time, spec.staleness_seconds, sample_size=100
            )
        plans = len(tree.plan_cache)
        assert plans == 60
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tree.plan_cache.clear()
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < freed / plans <= 4096, freed / plans
