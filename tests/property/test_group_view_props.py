"""The display groups of an ungrouped answer are a view, not a list.

``group_answer(answer, None, ...)`` returns a
:class:`~repro.portal.grouping.GroupView` that builds each
``DisplayGroup`` when it is read.  These tests hold it to the eager loop
it replaced (``tests/portal/reference_grouping.py``): equal element for
element — over random answers, through every entry point that
concatenates views (portal, batch, polygon executor, federation gather
with a top-up round) — and to the three things the view exists for:
nothing is built until ``.groups`` is read, a reply frame carries no
``DisplayGroup``, and a held result does not keep its tree alive.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COLRTreeConfig, GeoPoint, Reading
from repro.core.aggregates import AggregateSketch
from repro.core.lookup import QueryAnswer
from repro.federation import FederatedPortal, FederationConfig
from repro.frontdoor import AdmissionConfig, FrontDoor, FrontDoorConfig
from repro.geometry import Polygon, Rect
from repro.portal import DisplayGroup, SensorMapPortal, SensorQuery, group_answer
from repro.portal.grouping import GroupView, concat_groups

from tests.conftest import make_registry, make_tree
from tests.portal.reference_grouping import reference_group_answer

EXTENT = 10.0
TYPES = ("temperature", "wind")


def _register_fleet(portal, n: int, seed: int, types=TYPES, flaky_below=None) -> None:
    rng = np.random.default_rng(seed)
    for i in range(n):
        x, y = (float(v) for v in rng.uniform(0, EXTENT, 2))
        portal.register_sensor(
            GeoPoint(x, y),
            expiry_seconds=float(rng.uniform(300.0, 900.0)),
            sensor_type=types[i % len(types)],
            availability=0.05 if flaky_below is not None and y < flaky_below else 1.0,
        )
    portal.rebuild_index()


def _portal(n: int = 300, seed: int = 0, types=TYPES) -> SensorMapPortal:
    portal = SensorMapPortal(
        config=COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        max_sensors_per_query=None,
    )
    _register_fleet(portal, n, seed, types)
    return portal


def _skewed_federation() -> FederatedPortal:
    """Two shards (split by y), the low-y one nearly dead and known to
    be: a sampled query over the whole extent falls short there and
    tops up from the healthy shard."""
    fed = FederatedPortal(
        n_shards=2,
        config=COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        federation=FederationConfig(shard_retry_budget=0, redistribution_rounds=2),
        max_sensors_per_query=None,
    )
    _register_fleet(fed, 300, seed=11, flaky_below=EXTENT / 2)
    for shard in fed.shards():
        for sensor in shard.registry.all():
            ok = round(sensor.availability * 400)
            shard.availability.seed(sensor.sensor_id, ok, 400 - ok)
    return fed


def _trees_for(portal: SensorMapPortal, query: SensorQuery):
    """The trees a portal fans a query out to, in answer order."""
    if query.sensor_type is not None:
        return [portal.tree(query.sensor_type)]
    return [portal.tree(t) for t in portal._trees]


def _reference(portal: SensorMapPortal, result) -> list[DisplayGroup]:
    trees = _trees_for(portal, result.query)
    assert len(trees) == len(result.answers)
    return [
        group
        for answer, tree in zip(result.answers, trees)
        for group in reference_group_answer(answer, tree=tree)
    ]


def _assert_view_equals(groups, expected: list[DisplayGroup]) -> None:
    assert isinstance(groups, GroupView)
    assert len(groups) == len(expected)
    assert list(groups) == expected
    assert groups == expected and expected == groups
    assert not (groups != expected)
    for i in range(len(expected)):
        assert groups[i] == expected[i]
        assert groups[i - len(expected)] == expected[i]
    assert groups[1:3] == expected[1:3]
    assert bool(groups) == bool(expected)
    for bad in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            groups[bad]


# ----------------------------------------------------------------------
# Random answers
# ----------------------------------------------------------------------
@st.composite
def answers(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    finite = dict(allow_nan=False, allow_infinity=False)
    locations = {}
    probed, cached = [], []
    for sensor_id in range(n):
        locations[sensor_id] = GeoPoint(
            draw(st.floats(min_value=-170, max_value=170, **finite)),
            draw(st.floats(min_value=-80, max_value=80, **finite)),
        )
        reading = Reading(
            sensor_id=sensor_id,
            value=draw(st.floats(min_value=-1000, max_value=1000, **finite)),
            timestamp=draw(st.floats(min_value=0, max_value=50, **finite)),
            expires_at=100.0,
        )
        (probed if draw(st.booleans()) else cached).append(reading)
    sketches = [
        AggregateSketch.of(
            [
                (draw(st.floats(min_value=-10, max_value=10, **finite)), 0.0)
                for _ in range(draw(st.integers(min_value=1, max_value=4)))
            ]
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    answer = QueryAnswer(
        probed_readings=probed,
        cached_readings=cached,
        cached_sketches=sketches,
        cached_sketch_nodes=list(range(40, 40 + len(sketches))),
    )
    return answer, locations


class TestViewEqualsEagerLoop:
    @given(answers())
    @settings(max_examples=150, deadline=None)
    def test_random_answer(self, case):
        answer, locations = case
        view = group_answer(answer, None, sensor_location=locations.__getitem__)
        _assert_view_equals(
            view, reference_group_answer(answer, sensor_location=locations.__getitem__)
        )

    @given(answers(), answers())
    @settings(max_examples=50, deadline=None)
    def test_concatenation_and_inequality(self, first, second):
        views, expected = [], []
        for answer, locations in (first, second):
            views.append(group_answer(answer, None, sensor_location=locations.get))
            expected += reference_group_answer(answer, sensor_location=locations.get)
        joined = concat_groups(views)
        _assert_view_equals(joined, expected)
        assert joined == concat_groups(views)
        if expected:
            assert joined != expected + [expected[0]]
            moved = replace(expected[0], center=GeoPoint(0.5, 0.25))
            assert joined != [moved] + expected[1:]

    def test_a_view_reads_its_answer_at_access_time(self):
        answer = QueryAnswer(
            probed_readings=[Reading(k, float(k), 0.0, 100.0) for k in range(4)]
        )
        where = {k: GeoPoint(float(k), 0.0) for k in range(4)}
        view = group_answer(answer, None, sensor_location=where.get)
        answer.probed_readings = [r for r in answer.probed_readings if r.sensor_id % 2]
        assert [g.readings[0].sensor_id for g in view] == [1, 3]
        assert len(view) == 2

    def test_a_grouped_piece_makes_the_concatenation_a_list(self):
        answer = QueryAnswer(probed_readings=[Reading(0, 1.0, 0.0, 100.0)])
        where = {0: GeoPoint(1.0, 2.0)}.get
        view = group_answer(answer, None, sensor_location=where)
        clustered = group_answer(answer, 10.0, sensor_location=where)
        assert isinstance(clustered, list)
        joined = concat_groups([view, clustered])
        assert isinstance(joined, list) and joined == list(view) + clustered

    def test_tree_backed_view_places_cached_sketches_at_their_nodes(self):
        tree = make_tree(make_registry(n=120, seed=3))
        region = Rect(0.0, 0.0, 100.0, 100.0)
        tree.query(region, now=0.0, max_staleness=120.0, sample_size=0)
        warm = tree.query(region, now=1.0, max_staleness=120.0, sample_size=0)
        assert warm.cached_sketches, "the warm pass must terminate on aggregates"
        _assert_view_equals(
            group_answer(warm, None, tree=tree), reference_group_answer(warm, tree=tree)
        )


# ----------------------------------------------------------------------
# Entry points that concatenate views
# ----------------------------------------------------------------------
VIEWPORTS = [Rect(1.0, 1.0, 6.5, 7.0), Rect(0.0, 0.0, 10.0, 10.0), Rect(4.0, 4.2, 4.9, 5.3)]


class TestEntryPoints:
    @pytest.mark.parametrize("types", [TYPES[:1], TYPES])
    def test_execute_and_execute_batch(self, types):
        single, batch = _portal(types=types), _portal(types=types)
        queries = [
            SensorQuery(region=r, staleness_seconds=120.0, sensor_type=t, sample_size=s)
            for r in VIEWPORTS
            for t in (None, types[-1])
            for s in (None, 15)
        ]
        for tick in range(3):  # cold, then warm: probed, cached and sketches
            for query in queries:
                result = single.execute(query)
                _assert_view_equals(result.groups, _reference(single, result))
            for result in batch.execute_batch(queries).results:
                _assert_view_equals(result.groups, _reference(batch, result))
            single.clock.advance(20.0)
            batch.clock.advance(20.0)

    def test_polygon_executor(self):
        portal = _portal()
        triangle = Polygon([GeoPoint(1.2, 1.2), GeoPoint(8.4, 2.1), GeoPoint(4.3, 8.6)])
        for sensor_type in (None, TYPES[0]):
            query = SensorQuery(
                region=triangle, staleness_seconds=120.0, sensor_type=sensor_type
            )
            for _ in range(2):
                result = portal.execute_polygon(query)
                assert result.boundary_cells > 0
                _assert_view_equals(result.groups, _reference(portal, result))

    def test_federated_gather_with_a_topup_round(self):
        # The top-up answer passes _dedup_topup_result, which filters
        # the answers' lists under the view.
        fed = _skewed_federation()
        query = SensorQuery(
            region=Rect(0.0, 0.0, EXTENT, EXTENT), staleness_seconds=600.0, sample_size=60
        )
        result = fed.execute(query)
        assert result.redistribution_rounds_run >= 1 and result.topup_results
        pieces = sorted(result.shard_results.items()) + list(result.topup_results)
        expected = [
            group
            for shard_id, shard_result in pieces
            for group in _reference(fed.shard(shard_id), shard_result)
        ]
        _assert_view_equals(result.groups, expected)
        ids = [g.readings[0].sensor_id for g in result.groups if g.readings]
        assert len(ids) == len(set(ids)), "a top-up repeats no delivered sensor"

    def test_sampled_cluster_topup_groups_are_still_cut_down(self):
        # CLUSTER groups are eager lists: the top-up dedup must cut
        # them down itself, or round-1 sensors are reported twice.
        fed = _skewed_federation()
        result = fed.execute(
            SensorQuery(
                region=Rect(0.0, 0.0, EXTENT, EXTENT),
                staleness_seconds=600.0,
                sample_size=60,
                cluster_miles=40.0,
            )
        )
        assert result.topup_results and isinstance(result.groups, list)
        assert sum(g.size for g in result.groups) == result.result_weight


# ----------------------------------------------------------------------
# What the view is for
# ----------------------------------------------------------------------
class TestNothingBuiltUntilRead:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts ``DisplayGroup`` constructions."""
        count = [0]
        init = DisplayGroup.__init__

        def counting(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(DisplayGroup, "__init__", counting)
        return count

    def test_front_door_miss_l2_compose_and_l1_hit(self, built):
        door = FrontDoor(
            _portal(), FrontDoorConfig(admission=AdmissionConfig(enabled=False))
        )
        served = {}
        for viewport in (
            Rect(1.2, 1.3, 2.8, 2.9),  # miss: fills its tiles
            Rect(1.2, 1.3, 1.8, 1.9),  # new viewport over warm tiles: L2
            Rect(1.2, 1.3, 2.8, 2.9),  # revisit: L1
        ):
            res = door.execute(SensorQuery(region=viewport, staleness_seconds=120.0))
            served[res.served_from] = res.result
        assert set(served) == {"portal", "l2", "l1"}
        assert built[0] == 0
        for result in served.values():
            assert len(result.groups) == result.result_weight > 0
        assert built[0] == 0, "len() only adds list lengths"
        assert len(list(served["l2"].groups)) == built[0] > 0

    def test_every_portal_entry_point(self, built):
        portal = _portal()
        fed = FederatedPortal(
            n_shards=2,
            config=COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
            max_sensors_per_query=None,
        )
        _register_fleet(fed, 300, seed=0)
        rect = SensorQuery(region=VIEWPORTS[0], staleness_seconds=120.0)
        sampled = replace(rect, sample_size=20)
        polygon = replace(
            rect,
            region=Polygon([GeoPoint(1.2, 1.2), GeoPoint(8.4, 2.1), GeoPoint(4.3, 8.6)]),
        )
        results = []
        for target in (portal, fed):
            results += [target.execute(rect), target.execute(sampled)]
            results += target.execute_batch([rect, sampled]).results
            results.append(target.execute_polygon(polygon))
        assert built[0] == 0
        assert all(r.result_weight and len(r.groups) for r in results)
        assert built[0] == 0


class TestPickle:
    def test_round_trip_equal_and_frame_carries_no_display_group(self):
        portal = _portal()
        query = SensorQuery(region=VIEWPORTS[0], staleness_seconds=120.0)
        portal.execute(query)
        portal.clock.advance(5.0)
        result = portal.execute(query)  # warm: cached readings and sketches
        frame = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"DisplayGroup" not in frame
        assert b"GroupView" in frame
        # Its own readings' centers only — never the trees' sensor tables.
        assert b"Sensor" not in frame.replace(b"SensorQuery", b"")
        back = pickle.loads(frame)
        assert isinstance(back.groups, GroupView)
        assert back.groups == result.groups == _reference(portal, result)
        assert back.groups._parts[0][0] is back.answers[0]
        # And again: an unpickled view pickles like a live one.
        assert pickle.loads(pickle.dumps(back)).groups == result.groups


class TestHeldResultDoesNotPinItsTree:
    def test_tree_is_collected_while_the_result_still_materialises(self):
        portal = _portal(types=TYPES[:1])
        result = portal.execute(
            SensorQuery(region=VIEWPORTS[0], staleness_seconds=120.0)
        )
        expected = _reference(portal, result)
        tree = weakref.ref(portal.tree(TYPES[0]))
        del portal
        gc.collect()
        assert tree() is None
        assert result.groups == expected
