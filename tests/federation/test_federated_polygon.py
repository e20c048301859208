"""Federated polygon scatter: exact clipped routing and conservation.

Pins the satellite contract: a polygon scattered across shards routes
each shard the *exact* Sutherland–Hodgman clip of the polygon to the
shard's MBR — never the polygon's bounding rectangle — and the gathered
answer conserves the unsharded portal's sensor set bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federation import FederatedPortal
from repro.geoblocks.executor import PolygonResult
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal, SensorQuery
from tests.portal.reference_execute import reference_execute

# Spans all four GridPartitioner quadrants of the 100x100 extent while
# keeping the bounding box under the default 4096-cell plan budget.
TRIANGLE = Polygon([GeoPoint(10.0, 10.0), GeoPoint(70.0, 20.0), GeoPoint(40.0, 65.0)])
QUERY = SensorQuery(region=TRIANGLE, staleness_seconds=300.0)


def _register_fleet(portal, n=240, seed=5):
    rng = np.random.default_rng(seed)
    for x, y in rng.random((n, 2)) * 100:
        portal.register_sensor(
            GeoPoint(float(x), float(y)), expiry_seconds=600.0
        )
    portal.rebuild_index()
    return portal


def _federation(n_shards=4, **kwargs):
    kwargs.setdefault("max_sensors_per_query", None)
    kwargs.setdefault("network_options", {"latency_jitter": 0.0})
    return _register_fleet(FederatedPortal(n_shards=n_shards, **kwargs))


def _unsharded(**kwargs):
    kwargs.setdefault("max_sensors_per_query", None)
    kwargs.setdefault("network_options", {"latency_jitter": 0.0})
    return _register_fleet(SensorMapPortal(**kwargs))


def _ids(result) -> set[int]:
    return {
        r.sensor_id
        for a in result.answers
        for r in list(a.probed_readings) + list(a.cached_readings)
    }


def _values(result) -> dict[int, float]:
    return {
        r.sensor_id: r.value
        for a in result.answers
        for r in list(a.probed_readings) + list(a.cached_readings)
    }


class TestConservation:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_multi_shard_polygon_conserves_the_exact_answer(self, n_shards):
        # The plain traversal: ``execute`` would plan the triangle too.
        exact = reference_execute(_unsharded(), QUERY)
        assert len(_ids(exact)) > 0
        fed = _federation(n_shards=n_shards)
        merged = fed.execute_polygon(QUERY)
        assert not merged.partial
        assert _ids(merged) == _ids(exact)
        assert _values(merged) == _values(exact)

    def test_shards_answer_through_their_geoblock_path(self):
        fed = _federation(n_shards=4)
        merged = fed.execute_polygon(QUERY)
        assert len(merged.shard_results) > 1
        for result in merged.shard_results.values():
            assert isinstance(result, PolygonResult)


class TestScatterRouting:
    def test_subqueries_are_clipped_polygons_not_mbrs(self):
        fed = _federation(n_shards=4)
        plan = fed._plan(QUERY)
        assert len(plan.routes) > 1
        clipped_any = False
        for shard_id, sub in plan.subqueries:
            region = sub.region
            assert isinstance(region, Polygon)
            assert region.as_rect() is None
            mbr = fed._directory.entry(shard_id).mbr
            if region is not TRIANGLE:
                clipped_any = True
                bbox = region.bounding_box
                eps = 1e-9
                assert bbox.min_x >= mbr.min_x - eps
                assert bbox.max_x <= mbr.max_x + eps
                assert bbox.min_y >= mbr.min_y - eps
                assert bbox.max_y <= mbr.max_y + eps
        assert clipped_any

    def test_single_shard_scatter_passes_the_polygon_through(self):
        fed = _federation(n_shards=1)
        plan = fed._plan(QUERY)
        assert len(plan.subqueries) == 1
        assert plan.subqueries[0][1].region is TRIANGLE

    def test_rect_drawn_as_polygon_dispatches_to_execute(self):
        fed_a, fed_b = _federation(n_shards=4), _federation(n_shards=4)
        rect = Rect(20.0, 20.0, 70.0, 70.0)
        as_polygon = Polygon(
            [
                GeoPoint(rect.min_x, rect.min_y),
                GeoPoint(rect.max_x, rect.min_y),
                GeoPoint(rect.max_x, rect.max_y),
                GeoPoint(rect.min_x, rect.max_y),
            ]
        )
        ra = fed_a.execute(SensorQuery(region=rect, staleness_seconds=300.0))
        rb = fed_b.execute_polygon(
            SensorQuery(region=as_polygon, staleness_seconds=300.0)
        )
        assert ra.answers == rb.answers
        assert ra.groups == rb.groups
        assert ra.processing_seconds == rb.processing_seconds
        assert ra.collection_seconds == rb.collection_seconds
