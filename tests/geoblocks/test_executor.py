"""Polygon execution: parity, fallbacks, conservation, dedup, grid serving."""

from dataclasses import replace

from repro.geoblocks.executor import PolygonResult
from repro.geoblocks.planner import plan_polygon
from repro.geometry import Rect
from repro.portal.query import SensorQuery

from tests.geoblocks.conftest import (
    CELL_DEGREES,
    assert_identical_results,
    exact_query,
    make_portal,
    rect_as_polygon,
    sensor_ids,
    triangle,
    values_by_sensor,
)
from tests.portal.reference_execute import reference_execute


class TestRectangleParity:
    def test_rect_region_dispatches_to_execute(self):
        a, b = make_portal(seed=7), make_portal(seed=7)
        query = exact_query(Rect(2.0, 2.0, 6.0, 6.0))
        assert_identical_results(
            a.execute(query), b.execute_polygon(query), "rect region"
        )

    def test_rect_drawn_as_polygon_is_bit_identical(self):
        a, b = make_portal(seed=7), make_portal(seed=7)
        rect = Rect(2.0, 2.0, 6.0, 6.0)
        ra = a.execute(exact_query(rect))
        rb = b.execute_polygon(exact_query(rect_as_polygon(rect)))
        assert not isinstance(rb, PolygonResult)
        # The region is normalized, so even the query field matches.
        assert rb.query == ra.query
        assert_identical_results(ra, rb, "rect-as-polygon")

    def test_warm_parity_too(self):
        a, b = make_portal(seed=8), make_portal(seed=8)
        rect = Rect(1.0, 3.0, 7.0, 8.0)
        a.execute(exact_query(rect))
        b.execute_polygon(exact_query(rect_as_polygon(rect)))
        assert_identical_results(
            a.execute(exact_query(rect)),
            b.execute_polygon(exact_query(rect_as_polygon(rect))),
            "warm",
        )


class TestFallbacks:
    def test_sampled_query_takes_the_exact_path(self):
        portal = make_portal(seed=9)
        query = SensorQuery(
            region=triangle(), staleness_seconds=120.0, sample_size=10
        )
        assert not isinstance(portal.execute_polygon(query), PolygonResult)

    def test_zoomed_query_takes_the_exact_path(self):
        portal = make_portal(seed=9)
        query = SensorQuery(
            region=triangle(), staleness_seconds=120.0, zoom_level=3
        )
        assert not isinstance(portal.execute_polygon(query), PolygonResult)

    def test_capped_portal_takes_the_exact_path(self):
        portal = make_portal(seed=9, max_sensors_per_query=50)
        result = portal.execute_polygon(exact_query(triangle()))
        assert not isinstance(result, PolygonResult)

    def test_over_budget_plan_takes_the_exact_path(self):
        portal = make_portal(seed=9, max_cells=4)
        assert (
            plan_polygon(triangle(), CELL_DEGREES, 4) is None
        ), "triangle must overflow the 4-cell budget for this test"
        result = portal.execute_polygon(exact_query(triangle()))
        assert not isinstance(result, PolygonResult)

    def test_fallbacks_still_answer_exactly(self):
        grid, exact = make_portal(seed=9, max_cells=4), make_portal(seed=9)
        assert sensor_ids(
            grid.execute_polygon(exact_query(triangle()))
        ) == sensor_ids(reference_execute(exact, exact_query(triangle())))


class TestConservation:
    # Sensors pinned exactly on shared cell edges/corners inside the
    # triangle: closed cell geometry offers each to several sub-queries.
    EDGE_SENSORS = ((4.0, 4.0), (5.0, 4.0), (4.0, 5.0), (4.5, 3.0))

    def test_polygon_path_matches_exact_path(self):
        grid = make_portal(seed=10, extra_locations=self.EDGE_SENSORS)
        exact = make_portal(seed=10, extra_locations=self.EDGE_SENSORS)
        rg = grid.execute_polygon(exact_query(triangle()))
        # The plain traversal: ``execute`` would plan the triangle too.
        re = reference_execute(exact, exact_query(triangle()))
        assert isinstance(rg, PolygonResult)
        assert sensor_ids(rg) == sensor_ids(re)
        assert values_by_sensor(rg) == values_by_sensor(re)

    def test_shared_edge_sensors_are_deduplicated(self):
        portal = make_portal(seed=10, extra_locations=self.EDGE_SENSORS)
        result = portal.execute_polygon(exact_query(triangle()))
        assert isinstance(result, PolygonResult)
        ids = [
            r.sensor_id
            for a in result.answers
            for r in list(a.probed_readings) + list(a.cached_readings)
        ]
        assert len(ids) == len(set(ids))
        # The pinned edge sensors are all inside the triangle and must
        # each appear exactly once.
        by_location = {
            (s.location.x, s.location.y): s.sensor_id for s in portal.registry
        }
        for loc in self.EDGE_SENSORS:
            assert ids.count(by_location[loc]) == 1


class TestGridServing:
    def test_warm_interior_is_probe_free(self):
        portal = make_portal(seed=11)
        cold = portal.execute_polygon(exact_query(triangle()))
        assert isinstance(cold, PolygonResult)
        assert cold.interior_cells > 0
        warm = portal.execute_polygon(exact_query(triangle()))
        assert isinstance(warm, PolygonResult)
        assert warm.grid_cells_served == warm.interior_cells
        assert warm.interior_probes == 0
        assert sensor_ids(warm) == sensor_ids(cold)

    def test_stats_counters_surface_the_plan(self):
        portal = make_portal(seed=11)
        plan = plan_polygon(triangle(), CELL_DEGREES, 4096)
        result = portal.execute_polygon(exact_query(triangle()))
        assert result.interior_cells == len(plan.interior)
        assert result.boundary_cells == len(plan.boundary)

    def test_unknown_sensor_type_raises(self):
        portal = make_portal(n=20, seed=11)
        query = replace(exact_query(triangle()), sensor_type="nope")
        try:
            portal.execute_polygon(query)
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError for unknown sensor type")
