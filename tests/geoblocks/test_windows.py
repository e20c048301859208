"""Sliding analytic windows: reuse accounting, revalidation, temporal ring."""

import pytest

from repro.geoblocks.windows import SlidingWindow
from repro.geometry import Rect
from repro.geometry.grid import cell_of_point, cell_rect, cells_covering
from repro.sensors.sensor import Reading

from tests.geoblocks.conftest import (
    CELL_DEGREES,
    exact_query,
    make_portal,
    sensor_ids,
    triangle,
)

STALENESS = 120.0
# A 3x3-cell viewport, aligned to the 1-degree grid.
VIEW = Rect(2.0, 2.0, 5.0, 5.0)


def readings_of(result) -> list[Reading]:
    return [
        r
        for a in result.answers
        for r in list(a.probed_readings) + list(a.cached_readings)
    ]


def window(portal, **kwargs) -> SlidingWindow:
    kwargs.setdefault("staleness_seconds", STALENESS)
    return SlidingWindow(portal, **kwargs)


class TestReuse:
    def test_first_step_captures_everything(self):
        w = window(make_portal(seed=3))
        r = w.step(VIEW)
        assert r.cells_total == 9
        assert r.cells_refreshed == 9
        assert r.cells_reused == 0

    def test_static_viewport_reuses_every_cell(self):
        portal = make_portal(seed=3)
        w = window(portal)
        r0 = w.step(VIEW)
        r1 = w.step(VIEW)
        assert r1.cells_reused == 9
        assert r1.cells_refreshed == 0
        assert sensor_ids(r1) == sensor_ids(r0)

    def test_pan_recomputes_only_the_symmetric_difference(self):
        portal = make_portal(seed=3)
        w = window(portal)
        w.step(VIEW)
        r = w.step(Rect(3.0, 2.0, 6.0, 5.0))  # one cell east
        assert r.cells_total == 9
        assert r.cells_reused == 6
        assert r.cells_refreshed == 3

    def test_departed_cells_are_dropped(self):
        portal = make_portal(seed=3)
        w = window(portal)
        w.step(VIEW)
        w.step(Rect(3.0, 2.0, 6.0, 5.0))
        # Panning back must recapture the left strip: its snapshots are
        # gone (window memory is bounded by the current cover).
        r = w.step(VIEW)
        assert r.cells_reused == 6
        assert r.cells_refreshed == 3

    def test_window_matches_exact_query_over_the_cover(self):
        # Cells partition sensors (half-open ownership), so an aligned
        # viewport's window answer equals the exact rectangle query.
        portal, exact = make_portal(seed=5), make_portal(seed=5)
        r = window(portal).step(VIEW)
        ids = [x.sensor_id for x in readings_of(r)]
        assert len(ids) == len(set(ids))
        assert set(ids) == sensor_ids(exact.execute(exact_query(VIEW)))


class TestRevalidation:
    def test_write_refreshes_only_the_touched_cell(self):
        portal = make_portal(seed=4)
        w = window(portal)
        r0 = w.step(VIEW)
        target = readings_of(r0)[0].sensor_id
        cell = cell_of_point(next(s for s in portal.registry if s.sensor_id == target).location, CELL_DEGREES)
        now = portal.clock.now()
        portal._trees["generic"].insert_readings_batch(
            [Reading(target, 555.0, now + 1.0, now + 600.0)],
            fetched_at=now + 1.0,
        )
        r1 = w.step(VIEW)
        assert r1.cells_refreshed == 1
        assert r1.cells_reused == 8
        refreshed = {
            x.sensor_id: x.value for x in readings_of(r1)
        }
        assert refreshed[target] == 555.0
        assert cell in cells_covering(VIEW, CELL_DEGREES)

    def test_staleness_expiry_refreshes_everything(self):
        portal = make_portal(seed=4)
        grid = portal.geoblocks()
        # Unpopulated cells revalidate trivially (there is nothing to go
        # stale); every populated cell must recapture.
        empty = sum(
            1
            for cell in cells_covering(VIEW, CELL_DEGREES)
            if grid.cell_state("generic", cell) is None
        )
        assert empty < 9
        w = window(portal)
        w.step(VIEW)
        portal.clock.advance(STALENESS + 1.0)
        r = w.step(VIEW)
        assert r.cells_reused == empty
        assert r.cells_refreshed == 9 - empty

    def test_tree_without_slot_caches_reuses_while_fresh(self):
        """With ``caching_enabled=False`` the snapshot is the only copy
        of a cell's readings: it is reused while they stay fresh (no
        re-probe per step), and recaptured once they lapse."""
        portal = make_portal(seed=4, caching_enabled=False)
        assert portal.geoblocks().fresh_readings(
            "generic", (3, 3), portal.clock.now(), STALENESS
        ) == []
        w = window(portal)
        r0 = w.step(VIEW)
        assert readings_of(r0) and r0.cells_refreshed == 9
        probes = portal.network.stats.probes_attempted
        portal.clock.advance(STALENESS / 2)
        r1 = w.step(VIEW)
        assert (r1.cells_reused, r1.cells_refreshed) == (9, 0)
        assert readings_of(r1) == readings_of(r0)
        assert portal.network.stats.probes_attempted == probes
        portal.clock.advance(STALENESS / 2 + 1.0)
        r2 = w.step(VIEW)
        assert r2.cells_refreshed > 0
        assert portal.network.stats.probes_attempted > probes

    @pytest.mark.slow  # re-registers mid-test: full index rebuild
    def test_index_rebuild_invalidates_snapshots(self):
        portal = make_portal(seed=4)
        w = window(portal)
        w.step(VIEW)
        from repro.geometry import GeoPoint

        portal.register_sensor(GeoPoint(0.1, 0.1), expiry_seconds=600.0)
        r = w.step(VIEW)
        assert r.cells_reused == 0
        assert r.cells_refreshed == 9


class TestTemporalRing:
    def test_aggregate_over_last_k_steps(self):
        portal = make_portal(seed=6)
        w = window(portal, temporal_steps=2, aggregate="avg")
        r0 = w.step(VIEW)
        v0 = [x.value for x in readings_of(r0)]
        assert r0.window_aggregate == pytest.approx(sum(v0) / len(v0))
        # Change one sensor's value so the next step's sketch differs.
        target = readings_of(r0)[0].sensor_id
        now = portal.clock.now()
        portal._trees["generic"].insert_readings_batch(
            [Reading(target, 555.0, now + 1.0, now + 600.0)],
            fetched_at=now + 1.0,
        )
        r1 = w.step(VIEW)
        v1 = [x.value for x in readings_of(r1)]
        both = v0 + v1
        assert r1.window_aggregate == pytest.approx(sum(both) / len(both))
        # A third step evicts step 0 from the ring (maxlen = 2).
        r2 = w.step(VIEW)
        v2 = [x.value for x in readings_of(r2)]
        last_two = v1 + v2
        assert r2.window_aggregate == pytest.approx(
            sum(last_two) / len(last_two)
        )

    def test_empty_viewport_has_no_aggregate(self):
        portal = make_portal(n=20, seed=6)
        w = window(portal)
        r = w.step(Rect(500.0, 500.0, 502.0, 502.0))
        assert r.window_aggregate is None
        assert r.cells_total == 4

    def test_temporal_steps_must_be_positive(self):
        portal = make_portal(n=20, seed=6)
        with pytest.raises(ValueError):
            SlidingWindow(portal, staleness_seconds=STALENESS, temporal_steps=0)


class TestPolygonViewport:
    def test_cover_is_the_intersecting_cells(self):
        portal = make_portal(seed=5)
        poly = triangle()
        expected = [
            cell
            for cell in cells_covering(poly.bounding_box, CELL_DEGREES)
            if poly.intersects_rect(cell_rect(cell, CELL_DEGREES))
        ]
        w = window(portal)
        r0 = w.step(poly)
        assert r0.cells_total == len(expected)
        r1 = w.step(poly)
        assert r1.cells_reused == len(expected)
