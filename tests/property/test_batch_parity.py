"""Bit-identity of ``execute_batch([q])`` with the sequential executor.

``SensorMapPortal.execute(q)`` is ``execute_batch([q]).results[0]``; the
per-tree ``COLRTree.query`` loop it used to run is kept as
``tests/portal/reference_execute.py``.  The contract: a singleton batch
takes exactly that loop's decisions — same plan-cache interaction, same
probe order (hence the same network RNG draws), same ingestion, same
stats — for every query shape: rect/polygon region, exact/sampled
access path, cold/warmed cache, one or two sensor types, with and
without a configured transport.  A polygon the executor plans on its
geoblock grid is answered differently by design; it is held to
``execute`` bit for bit and to the loop's sensor set.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.geoblocks import GeoBlockConfig, PolygonResult, plan_polygon
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.storage import StorageConfig
from repro.transport import TransportConfig
from tests.portal.reference_execute import reference_execute


def _build_portal(
    availability: float = 1.0, n: int = 150, types: int = 1, **portal_kwargs
) -> SensorMapPortal:
    rng = np.random.default_rng(5)
    portal = SensorMapPortal(max_sensors_per_query=None, **portal_kwargs)
    for i, (x, y) in enumerate(rng.random((n, 2)) * 100):
        portal.register_sensor(
            GeoPoint(float(x), float(y)),
            expiry_seconds=300.0,
            sensor_type=f"t{i % types}",
            availability=availability,
        )
    portal.rebuild_index()
    return portal


def _assert_identical(seq_result, batch_result):
    assert len(seq_result.answers) == len(batch_result.answers)
    for a, b in zip(seq_result.answers, batch_result.answers):
        assert a.probed_readings == b.probed_readings
        assert a.cached_readings == b.cached_readings
        assert a.cached_sketches == b.cached_sketches
        assert a.cached_sketch_nodes == b.cached_sketch_nodes
        assert a.terminals == b.terminals
        assert a.stats == b.stats
        # A singleton batch never coalesces nor inherits a plan.
        assert b.stats.probes_coalesced == 0
        assert b.stats.batch_shared_nodes == 0
    assert seq_result.groups == batch_result.groups
    assert seq_result.processing_seconds == batch_result.processing_seconds
    assert seq_result.collection_seconds == batch_result.collection_seconds


def _sensor_ids(result) -> set[int]:
    return {
        r.sensor_id
        for a in result.answers
        for r in list(a.probed_readings) + list(a.cached_readings)
    }


RECTS = st.tuples(
    st.floats(0, 80, allow_nan=False),
    st.floats(0, 80, allow_nan=False),
    st.floats(5, 60, allow_nan=False),
    st.floats(5, 60, allow_nan=False),
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

TRIANGLES = st.tuples(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
).filter(
    lambda t: len({(t[0], t[1]), (t[2], t[3]), (t[4], t[5])}) == 3
).map(
    lambda t: Polygon(
        [GeoPoint(t[0], t[1]), GeoPoint(t[2], t[3]), GeoPoint(t[4], t[5])]
    )
)


def _transport(configured: bool) -> TransportConfig | None:
    return TransportConfig() if configured else None


class TestSingletonBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        region=RECTS,
        sampled=st.booleans(),
        warmed=st.booleans(),
        configured=st.booleans(),
    )
    def test_rect_queries(self, region, sampled, warmed, configured):
        self._check(region, sampled, warmed, transport=_transport(configured))

    @settings(max_examples=12, deadline=None)
    @given(region=TRIANGLES, sampled=st.booleans(), warmed=st.booleans())
    def test_polygon_queries(self, region, sampled, warmed):
        """The plain polygon traversal: on a fine grid with a one-cell
        budget the executor plans nothing."""
        grid = GeoBlockConfig(cell_degrees=0.01, max_cells_per_query=1)
        assume(plan_polygon(region, grid.cell_degrees, 1) is None)
        self._check(region, sampled, warmed, geoblocks=grid)

    @settings(max_examples=8, deadline=None)
    @given(region=TRIANGLES, warmed=st.booleans())
    def test_planned_polygon_queries(self, region, warmed):
        """An exact polygon whose cover fits the cell budget is planned:
        ``execute`` is its singleton batch bit for bit, and the composed
        answer holds the sensors the plain traversal returns."""
        query = SensorQuery(region=region, staleness_seconds=120.0)
        grid = GeoBlockConfig(cell_degrees=10.0)
        reference, batch_portal, single_portal = (
            _build_portal(geoblocks=grid) for _ in range(3)
        )
        if warmed:
            warm = SensorQuery(
                region=Rect(20.0, 20.0, 70.0, 70.0), staleness_seconds=120.0
            )
            for portal in (reference, batch_portal, single_portal):
                reference_execute(portal, warm)
        (planned,) = batch_portal.execute_batch([query]).results
        assert isinstance(planned, PolygonResult)
        assert planned.interior_cells + planned.boundary_cells > 0
        _assert_identical(planned, single_portal.execute(query))
        assert batch_portal.network.stats == single_portal.network.stats
        assert _sensor_ids(planned) == _sensor_ids(reference_execute(reference, query))

    @settings(max_examples=8, deadline=None)
    @given(region=RECTS, sampled=st.booleans(), configured=st.booleans())
    def test_flaky_network(self, region, sampled, configured):
        self._check(
            region,
            sampled,
            warmed=False,
            availability=0.8,
            transport=_transport(configured),
        )

    @settings(max_examples=8, deadline=None)
    @given(region=RECTS, warmed=st.booleans(), configured=st.booleans())
    def test_two_type_trees(self, region, warmed, configured):
        """A lone query over two type trees collects them one after the
        other, as the sequential loop did — also when the dispatcher
        could overlap the two rounds."""
        self._check(
            region,
            False,
            warmed,
            availability=0.8,
            types=2,
            transport=_transport(configured),
        )

    def _check(self, region, sampled, warmed, availability=1.0, **build):
        query = SensorQuery(
            region=region,
            staleness_seconds=120.0,
            sample_size=20 if sampled else None,
        )
        portals = [_build_portal(availability, **build) for _ in range(3)]
        if warmed:
            warm = SensorQuery(
                region=Rect(20.0, 20.0, 70.0, 70.0), staleness_seconds=120.0
            )
            for portal in portals:
                reference_execute(portal, warm)
        reference, batch_portal, single_portal = portals
        seq = reference_execute(reference, query)
        batch = batch_portal.execute_batch([query])
        assert len(batch.results) == 1
        _assert_identical(seq, batch.results[0])
        _assert_identical(seq, single_portal.execute(query))
        assert batch_portal.network.stats == reference.network.stats

    def test_zoom_level_grouping(self):
        query = SensorQuery(
            region=Rect(10.0, 10.0, 80.0, 80.0),
            staleness_seconds=120.0,
            zoom_level=1,
        )
        seq = reference_execute(_build_portal(), query)
        batch = _build_portal().execute_batch([query])
        _assert_identical(seq, batch.results[0])


@pytest.mark.parametrize(
    "transport", [None, TransportConfig()], ids=["parity", "configured"]
)
class TestDurablePortal:
    """With ``storage=`` attached every ingestion is journaled — on the
    batch path as on the sequential one.  ``StorageStats`` owns the disk
    I/O counts; a query's own stats are those of an in-memory portal."""

    def _portal(self, data_dir, transport) -> SensorMapPortal:
        return _build_portal(
            storage=StorageConfig(data_dir=data_dir, fsync_enabled=False),
            transport=transport,
        )

    def test_singleton_books_what_execute_books(self, tmp_path, transport):
        query = SensorQuery(
            region=Rect(10.0, 10.0, 70.0, 70.0), staleness_seconds=120.0
        )
        seq_portal = self._portal(tmp_path / "seq", transport)
        batch_portal = self._portal(tmp_path / "batch", transport)
        seq = reference_execute(seq_portal, query)
        batch = batch_portal.execute_batch([query])
        assert seq_portal.storage.stats.wal_appends > 0
        assert batch_portal.storage.stats == seq_portal.storage.stats
        _assert_identical(seq, batch.results[0])

    def test_a_tick_books_the_engines_own_delta(self, tmp_path, transport):
        portal = self._portal(tmp_path / "tick", transport)
        queries = [
            SensorQuery(region=region, staleness_seconds=120.0, sample_size=size)
            for region, size in (
                (Rect(10.0, 10.0, 50.0, 50.0), None),
                (Rect(30.0, 30.0, 80.0, 80.0), None),  # overlaps the first
                (Rect(60.0, 0.0, 100.0, 40.0), 15),  # sampled: runs alone
            )
        ]
        appends = portal.storage.stats.wal_appends
        batch = portal.execute_batch(queries)
        assert portal.storage.stats.wal_appends > appends
        # Journaling leaves the tick's answers and accounting alone.
        plain = _build_portal(transport=transport).execute_batch(queries)
        assert batch.stats == plain.stats
        for durable, memory in zip(batch.results, plain.results, strict=True):
            for a, b in zip(durable.answers, memory.answers, strict=True):
                assert a.probed_readings == b.probed_readings
                assert a.cached_readings == b.cached_readings
                assert a.stats == b.stats
