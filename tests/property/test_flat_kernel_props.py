"""Property-based tests of the flattened traversal kernel.

The kernel's whole contract is *exact* agreement with the per-node
predicates the recursive query paths would have evaluated: same
three-way classification, same overlap fractions, same leaf
membership, and plan-cache hits that are indistinguishable from cold
traversals.  Trees are expensive to build, so a small pool of
differently shaped trees is built once and hypothesis draws the query
regions.  ``TestTraversalOracle`` then compares whole scans against the
pointer recursion in ``tests/core/reference_traversal.py``, and
``TestExactQueryAccounting`` holds an executed exact query's terminals
to the sensors in its region and to what it served and probed.
"""

from __future__ import annotations

import math
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import COLRTreeConfig, Reading
from repro.core.flat import CONTAINED, DISJOINT, PARTIAL
from repro.core.lookup import range_scan, region_overlap_fraction
from repro.geometry import GeoPoint, Polygon, Rect

from tests.conftest import make_registry, make_tree, within
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


# ----------------------------------------------------------------------
# Exact-query accounting
# ----------------------------------------------------------------------
# A flaky fleet (a probe succeeds with probability 0.95) over small
# nodes, so warm-ups leave holes in the leaves and aggregates.
ACCOUNTING_REGISTRY = make_registry(n=300, extent=EXTENT, availability=0.95, seed=62)
SMALL_NODES = dict(
    fanout=4, leaf_capacity=8, max_expiry_seconds=600.0, slot_seconds=120.0
)
ACCOUNTING_CONFIGS = {
    "colr": COLRTreeConfig(**SMALL_NODES),
    "no_aggregates": COLRTreeConfig(**SMALL_NODES, aggregate_caching_enabled=False),
    "plain_rtree": COLRTreeConfig(**SMALL_NODES).as_plain_rtree(),
}
_COORD = st.floats(0.0, EXTENT)
_SIDE = st.floats(1.0, 1.5 * EXTENT)


@st.composite
def _overhanging_rects(draw) -> Rect:
    x0, y0 = draw(_COORD), draw(_COORD)
    return Rect(x0, y0, x0 + draw(_SIDE), y0 + draw(_SIDE))


@st.composite
def _convex_polygons(draw) -> Polygon:
    """A convex polygon: points on a circle at distinct whole degrees."""
    cx, cy = draw(_COORD), draw(_COORD)
    radius = draw(st.floats(5.0, 80.0))
    degrees = draw(st.lists(st.integers(0, 359), min_size=3, max_size=8, unique=True))
    return Polygon(
        [
            GeoPoint(
                cx + radius * math.cos(math.radians(d)),
                cy + radius * math.sin(math.radians(d)),
            )
            for d in sorted(degrees)
        ]
    )


_ACCOUNTING_REGIONS = st.one_of(_overhanging_rects(), _convex_polygons())
_WINDOW = Rect(10, 10, 80, 80)


def _assert_exact_query_accounts(tree, region, now, max_staleness):
    """Execute the exact query and hold its terminals to the brute-force
    in-region sensors and to what it served and probed.  Returns the
    answer."""
    answer = tree.query(region, now=now, max_staleness=max_staleness, sample_size=0)
    stats, terminals = answer.stats, answer.terminals
    in_region = {s.sensor_id for s in within(ACCOUNTING_REGISTRY, region)}

    # The terminals partition the region's sensors, each answered.
    assert sum(t.target for t in terminals) == len(in_region)
    assert all(t.results == t.target for t in terminals)
    # What the caches served plus what was probed is what the
    # terminals answered; a terminal that used no cache only probed.
    cached = len(answer.cached_readings) + sum(s.count for s in answer.cached_sketches)
    assert cached + stats.sensors_probed == sum(t.results for t in terminals)
    assert sum(t.results for t in terminals if not t.used_cache) <= stats.sensors_probed
    assert stats.probe_successes == len(answer.probed_readings)
    # No sensor is both served and probed, and none lies outside.
    served = [r.sensor_id for r in answer.cached_readings]
    probed = [r.sensor_id for r in answer.probed_readings]
    assert len(set(served + probed)) == len(served) + len(probed)
    assert set(served + probed) <= in_region
    return answer


class TestExactQueryAccounting:
    @settings(max_examples=200, deadline=None)
    @given(
        config=st.sampled_from(sorted(ACCOUNTING_CONFIGS)),
        # Exact warm-ups: over the whole extent, then over the query's
        # own region or another one.  One warm-up leaves probe failures
        # as holes in the leaves and a second fills most of them:
        # whole subtrees are then answered by aggregate termination.
        extent_warmups=st.integers(0, 2),
        warmups=st.lists(
            st.one_of(st.just("region"), _ACCOUNTING_REGIONS), max_size=3
        ),
        # 1 s and 60 s: everything warmed is unexpired; 300 s: part of
        # it has expired; 1,000 s: all of it has.
        now=st.sampled_from([1.0, 60.0, 300.0, 1000.0]),
        max_staleness=st.sampled_from([600.0, 60.0, math.inf]),
        region=_ACCOUNTING_REGIONS,
    )
    def test_terminals_account_for_region(
        self, config, extent_warmups, warmups, now, max_staleness, region
    ):
        tree = make_tree(ACCOUNTING_REGISTRY, ACCOUNTING_CONFIGS[config])
        extent = Rect(0, 0, EXTENT, EXTENT)
        for warm in [extent] * extent_warmups + warmups:
            tree.query(
                region if warm == "region" else warm,
                now=0.0, max_staleness=600.0, sample_size=0,
            )
        _assert_exact_query_accounts(tree, region, now, max_staleness)

    def test_aggregate_termination_accounts(self):
        tree = make_tree(ACCOUNTING_REGISTRY, ACCOUNTING_CONFIGS["colr"])
        for _ in range(2):
            tree.query(
                Rect(0, 0, EXTENT, EXTENT), now=0.0, max_staleness=600.0, sample_size=0
            )
        answer = _assert_exact_query_accounts(tree, _WINDOW, 1.0, 600.0)
        assert answer.cached_sketches and answer.cached_readings


class TestQueryArgumentChecks:
    """Negated comparisons: NaN fails them and infinity passes."""

    def test_nan_staleness_rejected(self):
        tree = make_tree(ACCOUNTING_REGISTRY)
        with pytest.raises(ValueError):
            tree.query(_WINDOW, now=0.0, max_staleness=math.nan)

    def test_negative_terminal_level_rejected(self):
        tree = make_tree(ACCOUNTING_REGISTRY)
        with pytest.raises(ValueError):
            tree.query(
                _WINDOW, now=0.0, max_staleness=600.0, sample_size=30,
                terminal_level=-1,
            )

    def test_infinite_staleness_allowed(self):
        tree = make_tree(ACCOUNTING_REGISTRY)
        answer = _assert_exact_query_accounts(tree, _WINDOW, 0.0, math.inf)
        assert answer.stats.sensors_probed == len(within(ACCOUNTING_REGISTRY, _WINDOW))
