"""Cell arithmetic and polygon rasterization."""

from repro.geoblocks.planner import plan_polygon
from repro.geometry import GeoPoint, Polygon, Rect
from repro.geometry.grid import cell_of_point, cell_rect, cells_covering


def diamond() -> Polygon:
    """A diamond spanning an 8x8-cell bounding box at 1-degree cells."""
    return Polygon(
        [GeoPoint(1.0, 5.0), GeoPoint(5.0, 1.0), GeoPoint(9.0, 5.0), GeoPoint(5.0, 9.0)]
    )


class TestCellArithmetic:
    def test_ownership_is_half_open(self):
        # A point exactly on a cell boundary belongs to the upper cell.
        assert cell_of_point(GeoPoint(1.0, 2.0), 1.0) == (1, 2)
        assert cell_of_point(GeoPoint(0.999, 1.999), 1.0) == (0, 1)
        assert cell_of_point(GeoPoint(-0.5, 0.0), 1.0) == (-1, 0)
        assert cell_of_point(GeoPoint(0.75, 0.25), 0.5) == (1, 0)

    def test_cell_rect_is_the_closed_cell(self):
        assert cell_rect((1, 2), 0.5) == Rect(0.5, 1.0, 1.0, 1.5)
        assert cell_rect((-1, 0), 1.0) == Rect(-1.0, 0.0, 0.0, 1.0)

    def test_cells_covering_floor_ceil(self):
        assert sorted(cells_covering(Rect(0.2, 0.2, 1.8, 1.8), 1.0)) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_edge_on_boundary_does_not_drag_next_cell(self):
        # max edge landing exactly on a cell boundary adds nothing.
        assert sorted(cells_covering(Rect(0.0, 0.0, 2.0, 1.0), 1.0)) == [
            (0, 0),
            (1, 0),
        ]

    def test_degenerate_bbox_covers_one_cell(self):
        assert cells_covering(Rect(0.5, 0.5, 0.5, 0.5), 1.0) == [(0, 0)]

    def test_ownership_consistent_with_cover(self):
        # Any point's owning cell is in the cover of any rect holding it.
        p = GeoPoint(3.7, 5.2)
        rect = Rect(3.0, 5.0, 4.0, 6.0)
        assert cell_of_point(p, 1.0) in cells_covering(rect, 1.0)


class TestPlanPolygon:
    def test_classification_partitions_the_cover(self):
        polygon = diamond()
        plan = plan_polygon(polygon, 1.0, max_cells=4096)
        assert plan is not None
        interior, boundary = set(plan.interior), set(plan.boundary)
        assert not interior & boundary
        cover = set(cells_covering(polygon.bounding_box, 1.0))
        assert interior | boundary <= cover
        for cell in cover:
            rect = cell_rect(cell, 1.0)
            if polygon.contains_rect(rect):
                assert cell in interior
            elif polygon.intersects_rect(rect):
                assert cell in boundary
            else:
                assert cell not in interior and cell not in boundary

    def test_diamond_has_interior_at_one_degree(self):
        plan = plan_polygon(diamond(), 1.0, max_cells=4096)
        assert plan is not None
        assert (4, 4) in plan.interior  # the center cell
        assert len(plan.interior) > 0
        assert len(plan.boundary) > 0

    def test_cells_in_deterministic_scan_order(self):
        plan = plan_polygon(diamond(), 1.0, max_cells=4096)
        assert plan is not None
        assert list(plan.interior) == sorted(plan.interior)
        assert list(plan.boundary) == sorted(plan.boundary)

    def test_over_budget_returns_none_never_truncates(self):
        assert plan_polygon(diamond(), 1.0, max_cells=10) is None
        assert plan_polygon(diamond(), 0.1, max_cells=100) is None
