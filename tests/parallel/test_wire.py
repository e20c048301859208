"""The reply-frame codec (:mod:`repro.parallel.wire`).

No worker process here: a shard portal answers in this process, the
reply goes through ``pack`` → pickle → ``unpack`` exactly as it would
over the op pipe, and what comes out must be the reply — equal field
for field, readings shared where they were shared, groups resolving
through the coordinator-side sensor table.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import COLRTreeConfig, GeoPoint, Reading
from repro.core.lookup import QueryAnswer, TerminalRecord
from repro.core.stats import QUERY_STATS_FIELDS, QueryStats
from repro.geoblocks.executor import PolygonResult
from repro.geometry import Polygon, Rect
from repro.parallel.wire import CARRIED, pack, unpack
from repro.portal import SensorMapPortal, SensorQuery
from repro.portal.batch import BatchResult
from repro.portal.grouping import GroupView
from repro.portal.portal import PortalResult

EXTENT = 10.0
TYPES = ("temperature", "wind")
STALENESS = 120.0
TRIANGLE = Polygon([GeoPoint(1.2, 1.2), GeoPoint(8.4, 2.1), GeoPoint(4.3, 8.6)])
REGIONS = {
    "rect": Rect(1.0, 1.0, 6.5, 7.0),
    "wide": Rect(0.0, 0.0, EXTENT, EXTENT),
    "empty": Rect(20.0, 20.0, 21.0, 21.0),
    "triangle": TRIANGLE,
    "rect_as_polygon": Polygon(
        [GeoPoint(2.0, 2.0), GeoPoint(7.0, 2.0), GeoPoint(7.0, 6.0), GeoPoint(2.0, 6.0)]
    ),
}


def _shard(n: int = 150, seed: int = 0, value_fn=None, availability: float = 1.0):
    """A shard portal and the ``sensor_id -> Sensor`` table the process
    coordinator would hold for it."""
    portal = SensorMapPortal(
        config=COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        max_sensors_per_query=None,
        value_fn=value_fn,
        network_seed=seed,
    )
    rng = np.random.default_rng(seed)
    for i in range(n):
        x, y = (float(v) for v in rng.uniform(0, EXTENT, 2))
        portal.register_sensor(
            GeoPoint(x, y),
            expiry_seconds=float(rng.uniform(300.0, 900.0)),
            sensor_type=TYPES[i % len(TYPES)],
            availability=availability,
        )
    portal.rebuild_index()
    return portal, {s.sensor_id: s for s in portal.registry.all()}


def _over_the_pipe(reply, args: tuple, sensors) -> tuple[str, object]:
    kind, payload = pack(reply, args)
    kind, payload = pickle.loads(
        pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL)
    )
    return kind, unpack(kind, payload, sensors, args)


def _alone_over_the_pipe(
    result: PortalResult, query: SensorQuery, sensors
) -> tuple[str, PortalResult]:
    """One result as a lone query's reply travels: in the batch frame of
    an ``execute_batch([query])``."""
    kind, back = _over_the_pipe(BatchResult([result]), ([query],), sensors)
    return kind, back.results[0]


def _all_readings(results) -> list[Reading]:
    return [
        reading
        for result in results
        for answer in result.answers
        for reading in answer.probed_readings + answer.cached_readings
    ]


def _sharing(readings: list[Reading]) -> list[int]:
    """For each reading, where the same *object* first appeared."""
    first: dict[int, int] = {}
    return [first.setdefault(id(r), i) for i, r in enumerate(readings)]


queries = st.builds(
    SensorQuery,
    region=st.sampled_from(sorted(REGIONS)).map(REGIONS.__getitem__),
    staleness_seconds=st.just(STALENESS),
    sample_size=st.sampled_from([None, 0, 5, 40]),
    sensor_type=st.sampled_from([None, *TYPES]),
)


class TestRoundTrip:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        availability=st.sampled_from([1.0, 0.7]),
        asked=st.lists(queries, min_size=0, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_singleton_and_batch_replies_come_back_equal(
        self, seed, availability, asked
    ):
        single, sensors = _shard(seed=seed, availability=availability)
        batch, _ = _shard(seed=seed, availability=availability)
        for _tick in range(2):  # cold, then warm: cached readings and sketches
            for query in asked:
                result = single.execute(query)
                kind, back = _alone_over_the_pipe(result, query, sensors)
                assert kind == "batch"
                assert type(back) is type(result)
                # query, groups, answers, timings, sample_requested
                assert back == result
                assert isinstance(back.groups, GroupView)
                assert len(back.groups) == len(list(back.groups))
            tick = batch.execute_batch(asked)
            kind, back = _over_the_pipe(tick, (asked,), sensors)
            assert kind == "batch" and type(back) is BatchResult
            assert back == tick
            assert _sharing(_all_readings(back.results)) == _sharing(
                _all_readings(tick.results)
            )
            single.clock.advance(20.0)
            batch.clock.advance(20.0)

    def test_every_answer_shape_is_exercised(self):
        """The cases the sweep above relies on really occur: probed,
        cached, sketch-carrying, sampled, polygon-composed and empty."""
        portal, sensors = _shard()
        wide = SensorQuery(region=REGIONS["wide"], staleness_seconds=STALENESS)
        cold = portal.execute(wide)
        portal.clock.advance(1.0)
        warm = portal.execute(wide)
        sampled = portal.execute(replace(wide, sample_size=20))
        polygon = portal.execute(replace(wide, region=TRIANGLE))
        empty = portal.execute(replace(wide, region=REGIONS["empty"]))
        assert any(a.probed_readings for a in cold.answers)
        assert any(a.cached_sketches for a in warm.answers)
        assert sampled.sample_requested and any(a.terminals for a in sampled.answers)
        assert isinstance(polygon, PolygonResult) and polygon.boundary_cells > 0
        assert empty.result_weight == 0
        for result in (cold, warm, sampled, polygon, empty):
            kind, back = _alone_over_the_pipe(result, result.query, sensors)
            assert kind == "batch" and back == result
            assert type(back) is type(result)

    def test_an_echoed_query_is_not_sent_and_a_rewritten_one_is(self):
        portal, sensors = _shard()
        echoed = SensorQuery(region=REGIONS["rect"], staleness_seconds=STALENESS)
        tick = portal.execute_batch([echoed])
        assert b"SensorQuery" not in pickle.dumps(pack(tick, ([echoed],)))
        assert _over_the_pipe(tick, ([echoed],), sensors)[1].results[0].query is echoed
        # A rectangle drawn as a polygon comes back with a Rect region.
        drawn = replace(echoed, region=REGIONS["rect_as_polygon"])
        result = portal.execute(drawn)
        assert result.query != drawn
        _, back = _alone_over_the_pipe(result, drawn, sensors)
        assert back.query == result.query and back == result


class TestSharedReadings:
    def test_a_reading_shared_across_a_batch_is_sent_once_and_stays_shared(self):
        portal, sensors = _shard()
        overlapping = [
            SensorQuery(
                region=Rect(1.0, 1.0, 6.0 + k, 6.0 + k), staleness_seconds=STALENESS
            )
            for k in range(4)
        ]
        portal.execute_batch(overlapping)
        portal.clock.advance(1.0)
        tick = portal.execute_batch(overlapping)  # warm: one slot cache serves all four
        before = _all_readings(tick.results)
        distinct = len({id(r) for r in before})
        assert distinct < len(before), "the batch must share cached readings"

        kind, (frame, _stats) = pack(tick, (overlapping,))
        assert kind == "batch"
        assert all(len(column) == distinct for column in frame[0])

        _, back = _over_the_pipe(tick, (overlapping,), sensors)
        after = _all_readings(back.results)
        assert after == before
        assert _sharing(after) == _sharing(before)


class TestGroupsResolveThroughTheShardTable:
    def test_unpacked_views_hold_the_table_by_reference(self):
        portal, sensors = _shard()
        query = SensorQuery(region=REGIONS["rect"], staleness_seconds=STALENESS)
        _, back = _alone_over_the_pipe(portal.execute(query), query, sensors)
        assert len(back.groups.parts) == len(back.answers) > 0
        for (viewed, sources, _), answer in zip(back.groups.parts, back.answers):
            assert viewed is answer
            assert len(sources) == 1 and sources[0] is sensors

    def test_front_door_compose_over_unpacked_tiles(self):
        """``GroupView.over`` — the front door's tile compose — finds
        every center through unpacked tile results."""
        portal, sensors = _shard()
        tiles = [
            SensorQuery(region=region, staleness_seconds=STALENESS)
            for region in (Rect(0.0, 0.0, 5.0, 10.0), Rect(5.0, 0.0, 10.0, 10.0))
        ]
        live = [portal.execute(tile) for tile in tiles]
        portal.clock.advance(1.0)
        live += [portal.execute(tile) for tile in tiles]  # warm: with sketches
        unpacked = [
            _alone_over_the_pipe(result, result.query, sensors)[1] for result in live
        ]

        def compose(results):
            merged = QueryAnswer()
            for result in results:
                for answer in result.answers:
                    merged.cached_readings += answer.probed_readings
                    merged.cached_readings += answer.cached_readings
                    merged.cached_sketches += answer.cached_sketches
                    merged.cached_sketch_nodes += answer.cached_sketch_nodes
            return GroupView.over(
                merged, [GroupView.locators(result.groups) for result in results]
            )

        composed = compose(unpacked)
        assert len(composed) > 0 and list(composed) == list(compose(live))
        assert composed.parts[0][1] == (sensors,)


class TestPickleArm:
    def _assert_plain(self, reply, args, sensors):
        kind, back = _over_the_pipe(reply, args, sensors)
        assert kind == "ok"
        assert back == reply
        return back

    def test_cluster_and_zoom_level_replies(self):
        portal, sensors = _shard()
        base = SensorQuery(region=REGIONS["wide"], staleness_seconds=STALENESS)
        for query in (replace(base, cluster_miles=40.0), replace(base, zoom_level=1)):
            tick = portal.execute_batch([query])
            (result,) = tick.results
            assert isinstance(result.groups, list) and result.groups
            back = self._assert_plain(tick, ([query],), sensors)
            assert isinstance(back.results[0].groups, list)
            tick = portal.execute_batch([base, query])
            self._assert_plain(tick, ([base, query],), sensors)

    def test_values_that_are_not_floats_keep_their_type(self):
        portal, sensors = _shard(value_fn=lambda sensor, now: sensor.sensor_id % 7)
        query = SensorQuery(region=REGIONS["wide"], staleness_seconds=STALENESS)
        tick = portal.execute_batch([query])
        back = self._assert_plain(tick, ([query],), sensors)
        values = [r.value for r in _all_readings(back.results)]
        assert values and all(type(v) is int for v in values)

    def test_everything_that_is_not_a_result(self):
        portal, sensors = _shard()
        query = SensorQuery(region=REGIONS["rect"], staleness_seconds=STALENESS)
        # No op returns a lone result: one is pickled whole.
        self._assert_plain(portal.execute(query), (query,), sensors)
        for op, args in (
            ("stats", ()),
            ("explain", (query,)),
            ("export_cache", (None,)),
        ):
            self._assert_plain(getattr(portal, op)(*args), args, sensors)
        self._assert_plain(None, (), sensors)

    def test_a_result_from_an_op_without_a_query_argument(self):
        portal, sensors = _shard()
        query = SensorQuery(region=REGIONS["rect"], staleness_seconds=STALENESS)
        tick = portal.execute_batch([query])
        # Nothing to align the results with: the reply is sent whole.
        kind, back = _over_the_pipe(tick, (), sensors)
        assert kind == "ok" and back == tick


class TestSchemaGuard:
    @pytest.mark.parametrize("cls", sorted(CARRIED, key=lambda cls: cls.__name__))
    def test_the_codec_carries_every_field(self, cls):
        """A field added to a result type must be added to the codec (or
        deliberately left to its default) — not silently dropped on the
        process backend only."""
        assert tuple(f.name for f in fields(cls)) == CARRIED[cls]

    def test_every_field_value_survives(self):
        """Distinct values in every slot, so a swapped or dropped column
        cannot pass as a default."""
        sensors = {7: None, 8: None}
        stats = QueryStats(**{name: k + 1 for k, name in enumerate(QUERY_STATS_FIELDS)})
        shared = Reading(7, 1.5, 10.0, 99.0)
        answer = QueryAnswer(
            probed_readings=[shared],
            cached_readings=[Reading(8, -2.25, 11.0, 98.0), shared],
            terminals=[TerminalRecord(3, 1, 2.5, 2, True)],
            stats=stats,
        )
        query = SensorQuery(region=REGIONS["rect"], staleness_seconds=STALENESS)
        result = PolygonResult(
            query=query,
            groups=GroupView(((answer, (sensors,), ()),)),
            answers=[answer],
            processing_seconds=0.125,
            collection_seconds=0.25,
            sample_requested=17,
            interior_cells=1,
            boundary_cells=2,
            grid_cells_served=3,
            interior_probes=4,
        )
        kind, payload = pack(BatchResult([result]), ([query],))
        assert kind == "batch"
        (back,) = unpack(
            *pickle.loads(pickle.dumps((kind, payload))), sensors, ([query],)
        ).results
        for name in (f.name for f in fields(PolygonResult) if f.name != "groups"):
            assert getattr(back, name) == getattr(result, name), name
        assert back.answers[0].stats == stats
        assert back.answers[0].probed_readings[0] is back.answers[0].cached_readings[1]
