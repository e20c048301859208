"""Property-based tests of the flattened traversal kernel.

The kernel's whole contract is *exact* agreement with the per-node
predicates the recursive query paths would have evaluated: same
three-way classification, same overlap fractions, same leaf
membership, and plan-cache hits that are indistinguishable from cold
traversals.  Trees are expensive to build, so a small pool of
differently shaped trees is built once and hypothesis draws the query
regions.  ``TestTraversalOracle`` then compares whole scans against the
pointer recursion in ``tests/core/reference_traversal.py``.
"""

from __future__ import annotations

import math
from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import COLRTreeConfig, Reading
from repro.core.flat import CONTAINED, DISJOINT, PARTIAL
from repro.core.lookup import range_scan, region_overlap_fraction
from repro.geometry import GeoPoint, Polygon, Rect

from tests.conftest import make_registry, make_tree
from tests.core.reference_traversal import reference_range_scan

EXTENT = 100.0

# A small pool of tree shapes: different populations, fanouts and leaf
# capacities, all with the kernel enabled (the default).
_TREES = [
    make_tree(make_registry(n=n, extent=EXTENT, seed=seed), config)
    for n, seed, config in [
        (120, 0, None),
        (
            350,
            3,
            COLRTreeConfig(
                fanout=4,
                leaf_capacity=8,
                max_expiry_seconds=600.0,
                slot_seconds=120.0,
            ),
        ),
        (
            500,
            5,
            COLRTreeConfig(
                fanout=12,
                leaf_capacity=50,
                max_expiry_seconds=600.0,
                slot_seconds=120.0,
            ),
        ),
    ]
]

trees = st.sampled_from(_TREES)

# Coordinates straddle the sensor extent so regions fall inside,
# outside, and across the boundary.
coord = st.floats(
    min_value=-25.0, max_value=EXTENT + 25.0, allow_nan=False, allow_infinity=False
)


@st.composite
def rect_regions(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def polygon_regions(draw):
    """A star-shaped polygon around a drawn center (always a valid,
    non-self-intersecting ring)."""
    cx = draw(coord)
    cy = draw(coord)
    k = draw(st.integers(min_value=3, max_value=7))
    radii = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    verts = [
        GeoPoint(
            cx + r * math.cos(2 * math.pi * i / k),
            cy + r * math.sin(2 * math.pi * i / k),
        )
        for i, r in enumerate(radii)
    ]
    try:
        return Polygon(verts)
    except ValueError:
        assume(False)


regions = st.one_of(rect_regions(), polygon_regions())


def expected_label(region, bbox: Rect) -> int:
    """The label the recursive traversal's predicates imply."""
    if not region.intersects_rect(bbox):
        return DISJOINT
    if region.contains_rect(bbox):
        return CONTAINED
    return PARTIAL


class TestClassification:
    @given(trees, regions)
    @settings(max_examples=150, deadline=None)
    def test_classify_matches_per_node_predicates(self, tree, region):
        kernel = tree.kernel
        labels = kernel.classify(region)
        for i, node in enumerate(kernel.nodes):
            assert labels[i] == expected_label(region, node.bbox), (
                f"node {node.node_id} (level {node.level}) misclassified"
            )

    @given(trees, regions)
    @settings(max_examples=150, deadline=None)
    def test_overlap_fractions_match_scalar(self, tree, region):
        kernel = tree.kernel
        fracs = kernel.overlap_fractions(region)
        for i, node in enumerate(kernel.nodes):
            assert fracs[i] == region_overlap_fraction(node.bbox, region)

    @given(trees, regions)
    @settings(max_examples=100, deadline=None)
    def test_leaf_matching_matches_scalar(self, tree, region):
        kernel = tree.kernel
        for i, node in enumerate(kernel.nodes):
            if not node.is_leaf:
                continue
            expected = [s for s in node.sensors if region.contains_point(s.location)]
            assert kernel.leaf_matching(i, region) == expected

    @given(trees, regions)
    @settings(max_examples=100, deadline=None)
    def test_visited_mask_follows_labels(self, tree, region):
        """A node is visited iff every proper ancestor is non-disjoint."""
        kernel = tree.kernel
        labels = kernel.classify(region)
        visited = kernel.visited_mask(labels)
        assert visited[0]
        for i in range(1, kernel.n_nodes):
            parent = int(kernel.parent[i])
            assert visited[i] == (visited[parent] and labels[parent] != DISJOINT)


class TestPlanCacheIdentity:
    @given(trees, regions)
    @settings(max_examples=100, deadline=None)
    def test_plan_cache_hit_identical_to_cold(self, tree, region):
        """A traversal served from a cached plan is indistinguishable
        from one that classified the region from scratch."""
        now, staleness = 1_000.0, 240.0
        tree.plan_cache.clear()
        cold_answer, cold_probes = range_scan(tree, region, now, staleness)
        warm_answer, warm_probes = range_scan(tree, region, now, staleness)
        assert tree.plan_cache.hits >= 1  # second pass was a cache hit
        assert warm_probes == cold_probes
        assert warm_answer.probed_readings == cold_answer.probed_readings
        assert warm_answer.cached_readings == cold_answer.cached_readings
        assert warm_answer.terminals == cold_answer.terminals
        ignored = {"plan_cache_hits", "plan_cache_misses"}
        for f in fields(warm_answer.stats):
            if f.name in ignored:
                continue
            assert getattr(warm_answer.stats, f.name) == getattr(
                cold_answer.stats, f.name
            ), f"stats field {f.name} diverges between warm and cold"


class TestTraversalOracle:
    @given(
        trees,
        regions,
        st.one_of(st.none(), rect_regions()),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_scan_matches_pointer_recursion(
        self, tree, region, warm_region, aggregate_termination
    ):
        """A kernel scan and the node-by-node recursion agree on the
        whole observable outcome: what the caches served, which sensors
        remain to probe (in order), and how much of the tree was walked.
        ``warm_region`` caches a fresh reading for every sensor inside
        it first, so leaves serve from cache and fully covered internal
        nodes terminate on their aggregates."""
        now, staleness = 1_000.0, 240.0
        if warm_region is not None:
            tree.insert_readings_batch(
                [
                    Reading(s.sensor_id, float(s.sensor_id), now - 10.0, now + 100.0)
                    for s in tree._sensors.values()
                    if warm_region.contains_point(s.location)
                ],
                fetched_at=now - 10.0,
            )
        try:
            warm = tree.cached_reading_count > 0
            got, got_probes = range_scan(
                tree, region, now, staleness,
                aggregate_termination=aggregate_termination,
            )
            want, want_probes = reference_range_scan(
                tree, region, now, staleness, aggregate_termination
            )
        finally:
            tree.clear_caches()
        assert got_probes == want_probes
        assert got.cached_readings == want.cached_readings
        assert got.cached_sketches == want.cached_sketches
        assert got.cached_sketch_nodes == want.cached_sketch_nodes
        assert got.terminals == want.terminals
        assert got.stats.nodes_traversed == want.stats.nodes_traversed
        assert got.stats.readings_scanned == want.stats.readings_scanned
        assert got.stats.slots_combined == want.stats.slots_combined
        # The empty-cache scan memoizes its consultation count with the
        # aggregate checks included (see ``scan_with_plan``), so on a
        # cold tree the counter is only comparable with them on.
        if warm or aggregate_termination:
            assert (
                got.stats.cached_nodes_accessed == want.stats.cached_nodes_accessed
            )
