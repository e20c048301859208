"""The geoblock grid: populations, and cell serving as a view over the
leaf slot caches."""

import pytest

from repro.geoblocks.windows import SlidingWindow
from repro.geometry import Rect
from repro.geometry.grid import cell_of_point, cell_rect, cells_covering
from repro.sensors.sensor import Reading

from tests.geoblocks.conftest import (
    CELL_DEGREES,
    EXTENT,
    STALENESS,
    exact_query,
    make_portal,
)


def populated_cell(portal):
    """Some cell with at least two sensors, plus its population."""
    grid = portal.geoblocks()
    for cell, state in grid._cells["generic"].items():
        if len(state.population) >= 2:
            return cell, list(state.population)
    raise AssertionError("fleet too sparse for the test")


def warm_cell(portal):
    """A populated cell whose sensors a query has just probed."""
    grid = portal.geoblocks()
    cell, population = populated_cell(portal)
    portal.execute(exact_query(cell_rect(cell, CELL_DEGREES)))
    return grid, cell, population


class TestSync:
    def test_populations_partition_the_fleet(self):
        portal = make_portal(n=60, seed=1)
        grid = portal.geoblocks()
        seen: dict[int, tuple[int, int]] = {}
        for cell, state in grid._cells["generic"].items():
            assert state.population == sorted(state.population)
            for sensor_id in state.population:
                assert sensor_id not in seen
                seen[sensor_id] = cell
        for sensor in portal.registry:
            assert seen[sensor.sensor_id] == cell_of_point(
                sensor.location, CELL_DEGREES
            )

    def test_sync_is_idempotent_until_generation_moves(self):
        portal = make_portal(n=30, seed=1)
        grid = portal.geoblocks()
        generation, cells = grid.generation, grid._cells
        portal.geoblocks()
        # A no-op: same generation, and the populations were not rebuilt.
        assert grid.generation == generation == portal.index_generation
        assert grid._cells is cells

    @pytest.mark.slow  # re-registers mid-test: full index rebuild
    def test_rebuild_on_generation_move_restarts_cold(self):
        portal = make_portal(n=60, seed=1)
        grid, cell, _ = warm_cell(portal)
        now = portal.clock.now()
        assert grid.serve_cell("generic", cell, now, STALENESS) is not None
        generation = grid.generation
        from repro.geometry import GeoPoint

        portal.register_sensor(GeoPoint(0.1, 0.1), expiry_seconds=600.0)
        grid2 = portal.geoblocks()
        assert grid2 is grid
        assert grid.generation == portal.index_generation != generation
        # The view now reads the rebuilt trees' cold slot caches.
        assert grid.serve_cell("generic", cell, now, STALENESS) is None


class TestServeCell:
    def test_unpopulated_cell_serves_empty(self):
        portal = make_portal(n=20, seed=2)
        grid = portal.geoblocks()
        assert grid.serve_cell("generic", (999, 999), 0.0, STALENESS) == []

    def test_cold_populated_cell_falls_back(self):
        portal = make_portal(n=60, seed=2)
        grid = portal.geoblocks()
        cell, _ = populated_cell(portal)
        assert grid.serve_cell(
            "generic", cell, portal.clock.now(), STALENESS
        ) is None

    def test_query_ingest_fills_the_mirror(self):
        portal = make_portal(n=60, seed=2)
        grid, cell, population = warm_cell(portal)
        now = portal.clock.now()
        served = grid.serve_cell("generic", cell, now, STALENESS)
        assert served is not None
        # The full population, in sensor-id order.
        assert [r.sensor_id for r in served] == population

    def test_stale_mirror_falls_back(self):
        portal = make_portal(n=60, seed=2)
        grid, cell, _ = warm_cell(portal)
        portal.clock.advance(STALENESS + 1.0)
        assert grid.serve_cell(
            "generic", cell, portal.clock.now(), STALENESS
        ) is None


class TestView:
    """Cells hold no readings of their own: what ``serve_cell`` returns
    is what the leaf slot caches hold at that moment."""

    # 2.5-degree cells: 4 x 4 of them tile the extent, ~19 sensors each.
    COARSE = 2.5

    def all_cells(self):
        cells = cells_covering(Rect(0.0, 0.0, EXTENT, EXTENT), self.COARSE)
        assert len(cells) == 16
        return cells

    def test_out_of_band_write_is_served_and_refreshes_one_window_cell(self):
        portal = make_portal(seed=3)
        grid = portal.geoblocks()
        view = Rect(2.0, 2.0, 5.0, 5.0)
        window = SlidingWindow(portal, staleness_seconds=STALENESS)
        first = window.step(view)
        assert first.cells_refreshed == 9
        target = first.answers[0].probed_readings[0].sensor_id
        cell = cell_of_point(next(s for s in portal.registry if s.sensor_id == target).location, CELL_DEGREES)
        now = portal.clock.now()
        written = Reading(target, 123.456, now, now + 600.0)
        portal._trees["generic"].insert_readings_batch([written], fetched_at=now)
        # No listener ran and nothing was copied: the very next serve
        # reads the new entry out of the leaf.
        served = grid.serve_cell("generic", cell, now, STALENESS)
        assert served is not None and written in served
        second = window.step(view)
        assert (second.cells_refreshed, second.cells_reused) == (1, 8)

    def test_capacity_bounded_tree_serves_nothing_beyond_its_slot_caches(self):
        # Section IV-A's global cache-size constraint bounds the grid
        # too: after a full warm-up the trees hold 10 readings, so no
        # ~19-sensor cell is complete (a mirror of the ingest stream
        # held all 300 and served every cell).
        portal = make_portal(seed=7, cell_degrees=self.COARSE, cache_capacity=10)
        grid = portal.geoblocks()
        portal.execute(exact_query(Rect(0.0, 0.0, EXTENT, EXTENT)))
        tree = portal._trees["generic"]
        assert tree.cached_reading_count == 10
        now = portal.clock.now()
        held = 0
        for cell in self.all_cells():
            assert grid.serve_cell("generic", cell, now, STALENESS) is None
            held += len(grid.fresh_readings("generic", cell, now, STALENESS))
        assert held == 10

    def test_grid_first_built_after_a_warm_up_serves_every_cell(self):
        # The readings were ingested before any grid existed; a view
        # needs no history (a listener-fed mirror started empty here).
        portal = make_portal(seed=7, cell_degrees=self.COARSE)
        portal.execute(exact_query(Rect(0.0, 0.0, EXTENT, EXTENT)))
        assert portal._geoblocks is None
        grid = portal.geoblocks()
        now = portal.clock.now()
        total = 0
        for cell in self.all_cells():
            served = grid.serve_cell("generic", cell, now, STALENESS)
            assert served is not None
            total += len(served)
        assert total == 300
