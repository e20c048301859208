"""EXPLAIN: plan inspection without execution."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COLRTreeConfig, GeoPoint, Polygon, Rect

from tests.conftest import make_registry, make_tree, within


@pytest.fixture
def tree():
    return make_tree(make_registry(n=500, seed=60))


REGION = Rect(10, 10, 80, 80)


class TestExplainBasics:
    def test_no_side_effects(self, tree):
        plan = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        assert plan.expected_probes > 0
        assert tree.network.stats.probes_attempted == 0
        assert tree.cached_reading_count == 0

    def test_deterministic(self, tree):
        a = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        b = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        assert a.expected_probes == b.expected_probes
        assert len(a.terminals) == len(b.terminals)

    def test_access_path_selection(self, tree):
        sampled = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        exact = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=0)
        assert sampled.access_path == "layered_sampling"
        assert exact.access_path == "range_lookup"

    def test_relevant_sensors_exact(self, tree):
        plan = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=0)
        # Count by brute force.
        expected = sum(
            1
            for sid in range(len(tree))
            if REGION.contains_point(tree.sensor(sid).location)
        )
        assert plan.relevant_sensors == expected

    def test_negative_staleness_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.explain(REGION, now=0.0, max_staleness=-1.0)

    def test_format_readable(self, tree):
        text = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30).format()
        assert "access path" in text
        assert "expected probes" in text


class TestExplainPredictions:
    def test_cold_exact_plan_predicts_full_probe(self, tree):
        plan = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=0)
        assert plan.expected_probes == plan.relevant_sensors
        assert plan.cache_coverage == 0.0
        answer = tree.query(REGION, now=0.0, max_staleness=600.0, sample_size=0)
        assert answer.stats.sensors_probed == plan.expected_probes

    def test_warm_exact_plan_sees_cache(self, tree):
        tree.query(REGION, now=0.0, max_staleness=600.0, sample_size=0)
        plan = tree.explain(REGION, now=1.0, max_staleness=600.0, sample_size=0)
        assert plan.cache_coverage == 1.0
        assert plan.expected_probes == 0.0

    def test_sampled_plan_close_to_execution(self, tree):
        plan = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        answer = tree.query(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        # The plan is an expectation; the execution is one draw.
        assert plan.expected_probes == pytest.approx(
            answer.stats.sensors_probed, rel=0.5, abs=10
        )

    def test_warm_sampled_plan_drops_probes(self, tree):
        cold = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        tree.query(Rect(0, 0, 100, 100), now=0.0, max_staleness=600.0, sample_size=0)
        warm = tree.explain(REGION, now=1.0, max_staleness=600.0, sample_size=30)
        assert warm.expected_probes < cold.expected_probes
        assert warm.cached_weight > 0

    def test_empty_region_plan(self, tree):
        plan = tree.explain(
            Rect(500, 500, 600, 600), now=0.0, max_staleness=600.0, sample_size=30
        )
        assert plan.relevant_sensors == 0
        assert plan.expected_probes == 0.0
        assert plan.cache_coverage == 1.0

    def test_plain_rtree_mode_plan(self):
        registry = make_registry(n=200, seed=61)
        tree = make_tree(registry, COLRTreeConfig().as_plain_rtree())
        plan = tree.explain(REGION, now=0.0, max_staleness=600.0, sample_size=30)
        assert plan.access_path == "range_lookup"
        assert plan.expected_probes == plan.relevant_sensors


class TestArgumentChecks:
    """``query`` and ``explain`` share one check of their arguments."""

    @pytest.mark.parametrize("method", ["query", "explain"])
    def test_nan_staleness_rejected(self, tree, method):
        with pytest.raises(ValueError):
            getattr(tree, method)(REGION, now=0.0, max_staleness=math.nan)

    @pytest.mark.parametrize("method", ["query", "explain"])
    def test_negative_terminal_level_rejected(self, tree, method):
        with pytest.raises(ValueError):
            getattr(tree, method)(
                REGION, now=0.0, max_staleness=600.0, sample_size=30,
                terminal_level=-1,
            )

    def test_infinite_staleness_allowed(self, tree):
        plan = tree.explain(REGION, now=0.0, max_staleness=math.inf, sample_size=0)
        answer = tree.query(REGION, now=0.0, max_staleness=math.inf, sample_size=0)
        assert answer.stats.sensors_probed == plan.expected_probes > 0


# ----------------------------------------------------------------------
# Exact EXPLAIN is execution
# ----------------------------------------------------------------------
EXTENT = 100.0
PROPERTY_REGISTRY = make_registry(n=300, extent=EXTENT, availability=0.95, seed=62)
SMALL_NODES = dict(
    fanout=4, leaf_capacity=8, max_expiry_seconds=600.0, slot_seconds=120.0
)
PROPERTY_CONFIGS = {
    "colr": COLRTreeConfig(**SMALL_NODES),
    "no_aggregates": COLRTreeConfig(**SMALL_NODES, aggregate_caching_enabled=False),
    "plain_rtree": COLRTreeConfig(**SMALL_NODES).as_plain_rtree(),
}
_COORD = st.floats(0.0, EXTENT)
_SIDE = st.floats(1.0, 1.5 * EXTENT)


@st.composite
def _rects(draw) -> Rect:
    x0, y0 = draw(_COORD), draw(_COORD)
    return Rect(x0, y0, x0 + draw(_SIDE), y0 + draw(_SIDE))


@st.composite
def _polygons(draw) -> Polygon:
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


_REGIONS = st.one_of(_rects(), _polygons())


@settings(max_examples=200, deadline=None)
@given(
    config=st.sampled_from(sorted(PROPERTY_CONFIGS)),
    # Exact warm-ups: over the whole extent, then over the query's own
    # region or another one.  A sensor answers a probe with
    # probability 0.95, so one warm-up leaves holes in the leaves and a
    # second one fills most of them: whole subtrees are then answered
    # by aggregate termination.
    extent_warmups=st.integers(0, 2),
    warmups=st.lists(st.one_of(st.just("region"), _REGIONS), max_size=3),
    # 1 s and 60 s: everything warmed is unexpired; 300 s: part of it
    # has expired; 1,000 s: all of it has.
    now=st.sampled_from([1.0, 60.0, 300.0, 1000.0]),
    max_staleness=st.sampled_from([600.0, 60.0, math.inf]),
    region=_REGIONS,
)
def test_exact_explain_is_the_executed_query(
    config, extent_warmups, warmups, now, max_staleness, region
):
    tree = make_tree(PROPERTY_REGISTRY, PROPERTY_CONFIGS[config])
    extent = Rect(0, 0, EXTENT, EXTENT)
    for warm in [extent] * extent_warmups + warmups:
        tree.query(
            region if warm == "region" else warm,
            now=0.0, max_staleness=600.0, sample_size=0,
        )
    _assert_explain_is_execution(tree, region, now, max_staleness)


def test_exact_explain_reads_aggregate_termination():
    tree = make_tree(PROPERTY_REGISTRY, PROPERTY_CONFIGS["colr"])
    for _ in range(2):
        tree.query(Rect(0, 0, EXTENT, EXTENT), now=0.0, max_staleness=600.0, sample_size=0)
    answer = _assert_explain_is_execution(tree, REGION, 1.0, 600.0)
    assert answer.cached_sketches and answer.cached_readings


def _assert_explain_is_execution(tree, region, now, max_staleness):
    """Explain, then execute, the exact query: the plan must be what
    the execution did.  Returns the executed answer."""
    plan = tree.explain(region, now=now, max_staleness=max_staleness, sample_size=0)
    answer = tree.query(region, now=now, max_staleness=max_staleness, sample_size=0)

    assert plan.access_path == "range_lookup"
    assert plan.expected_probes == answer.stats.sensors_probed
    assert plan.cached_weight == len(answer.cached_readings) + sum(
        s.count for s in answer.cached_sketches
    )
    assert [
        (t.node_id, t.level, t.target, t.cached_weight + t.expected_probes,
         t.cached_weight > 0)
        for t in plan.terminals
    ] == [
        (t.node_id, t.level, t.target, t.results, t.used_cache)
        for t in answer.terminals
    ]
    assert plan.relevant_sensors == len(within(PROPERTY_REGISTRY, region))
    return answer
