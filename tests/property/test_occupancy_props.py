"""The fleet's tile occupancy answers as a per-cell scan would.

``repro.geometry.grid.occupancy`` names, per label and over all labels,
the cells whose closed rectangles hold at least one point.  The front
door composes every tile it leaves out as empty, without a fill, so a
cell it misses would drop a sensor from an answer.  The oracle here is
the definition: a cell is occupied exactly when ``cell_rect(cell,
extent).contains_point(p)`` for one of the points, tested for each point
on every cell within two columns and rows of its ``floor(v / extent)``
cell (the function looks only one either side).  Points are drawn on
cell lines and corners, a rounding step off them, negative, large (up
to the far threshold and past it) and non-finite, with several labels.

The directory's summary belongs to its committed rows: after joins,
leaves and a rebalance step it must still equal the oracle over the
shards' members, on both backends.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import FederatedPortal, FederationConfig
from repro.geometry import GeoPoint
from repro.geometry.grid import (
    _FAR_CELLS,
    TILE_EXTENT_DEGREES,
    cell_rect,
    occupancy,
)
from repro.portal import SensorMapPortal
from repro.rebalance import JoinSpec, RebalanceConfig, Rebalancer, ShardMover

EXTENTS = (0.5, 0.25, 0.3, 1.0 / 3.0)
LABELS = ("a", "b", "c")


def _far(x: float, y: float, e: float) -> bool:
    return (
        math.isfinite(x)
        and math.isfinite(y)
        and not (abs(x / e) < _FAR_CELLS and abs(y / e) < _FAR_CELLS)
    )


def oracle(points, e: float) -> dict:
    """``occupancy`` by brute force: per label and under ``None``, the
    cells near a point whose closed rectangle holds one, or ``None``
    when a point of the label is far."""
    out: dict = {}
    for key in [None, *dict.fromkeys(label for _, _, label in points)]:
        mine = [(x, y) for x, y, label in points if key is None or label == key]
        if any(_far(x, y, e) for x, y in mine):
            out[key] = None
            continue
        out[key] = frozenset(
            cell
            for x, y in mine
            if math.isfinite(x) and math.isfinite(y)
            for cell in (
                (math.floor(x / e) + dx, math.floor(y / e) + dy)
                for dx in range(-2, 3)
                for dy in range(-2, 3)
            )
            if cell_rect(cell, e).contains_point(GeoPoint(x, y))
        )
    return out


def summary(points, e: float) -> dict:
    return occupancy(
        [x for x, _, _ in points],
        [y for _, y, _ in points],
        [label for _, _, label in points],
        e,
    )


# ----------------------------------------------------------------------
# Coordinates
# ----------------------------------------------------------------------
@st.composite
def coordinates(draw, e: float) -> float:
    """A coordinate on a cell line, a rounding step either side of one,
    anywhere, large, about the far threshold, or not finite."""
    kind = draw(
        st.sampled_from(["line", "nudged", "free", "large", "threshold", "odd"])
    )
    if kind == "line":
        return draw(st.integers(-40, 40)) * e
    if kind == "nudged":
        v = draw(st.integers(-40, 40)) * e
        return math.nextafter(v, draw(st.sampled_from([math.inf, -math.inf])))
    if kind == "free":
        return draw(st.floats(-20.0, 20.0, allow_nan=False))
    if kind == "large":
        k = draw(st.integers(-(2**40), 2**40))
        return k * e + draw(st.sampled_from([0.0, 0.5 * e, e]))
    if kind == "threshold":
        k = draw(st.integers(-3, 3)) + int(_FAR_CELLS)
        v = k * e
        return draw(st.sampled_from([v, -v, math.nextafter(v, 0.0), 1e300, -1e300]))
    return draw(st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def fleets(draw):
    e = draw(st.sampled_from(EXTENTS))
    points = draw(
        st.lists(
            st.tuples(coordinates(e), coordinates(e), st.sampled_from(LABELS)),
            min_size=1,
            max_size=24,
        )
    )
    return points, e


@st.composite
def clustered(draw):
    """Mostly ordinary points in a few cells, sharing lines and corners
    with one another: the summary's fast path beside its exact one."""
    e = draw(st.sampled_from(EXTENTS))
    n = draw(st.integers(1, 40))
    cell = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    cells = draw(st.lists(cell, min_size=1, max_size=4))
    points = []
    for i in range(n):
        ix, iy = cells[i % len(cells)]
        fx = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        fy = draw(st.floats(0.0, 1.0))
        label = LABELS[i % draw(st.integers(1, 3))]
        points.append(((ix + fx) * e, (iy + fy) * e, label))
    return points, e


@settings(max_examples=200, deadline=None)
@given(fleet=st.one_of(fleets(), clustered()))
def test_occupancy_is_the_closed_cells_holding_a_point(fleet):
    points, e = fleet
    assert summary(points, e) == oracle(points, e)


def test_lines_and_corners_mark_every_closed_cell():
    e = 0.5
    got = summary(
        [(0.5, 0.5, "a"), (0.25, 1.0, "a"), (-0.5, 0.0, "b"), (0.1, 0.1, "b")], e
    )
    corner = {(0, 0), (1, 0), (0, 1), (1, 1)}
    line = {(0, 1), (0, 2)}
    negative = {(-2, -1), (-1, -1), (-2, 0), (-1, 0)}
    assert got["a"] == corner | line
    assert got["b"] == negative | {(0, 0)}
    assert got[None] == corner | line | negative


def test_non_finite_points_hold_no_cell_and_far_ones_are_not_known():
    e = TILE_EXTENT_DEGREES
    got = summary([(math.inf, 0.0, "a"), (math.nan, 1.0, "a"), (0.1, 0.1, "a")], e)
    assert got == {"a": frozenset({(0, 0)}), None: frozenset({(0, 0)})}
    got = summary([(1e300, 0.0, "a"), (0.1, 0.1, "b")], e)
    assert got == {"a": None, "b": frozenset({(0, 0)}), None: None}
    assert summary([], e) == {None: frozenset()}


# ----------------------------------------------------------------------
# Committed with membership
# ----------------------------------------------------------------------
def _points(fed: FederatedPortal) -> list:
    return [
        (s.location.x, s.location.y, s.sensor_type)
        for i in range(fed.n_shards)
        for s in fed.shard_members(i)
    ]


def _assert_matches(portal, points) -> None:
    expected = oracle(points, TILE_EXTENT_DEGREES)
    for key, cells in expected.items():
        assert portal.occupied_tiles(key) == cells, key
    assert portal.occupied_tiles("no such type") is None


def _fleet_on_lines(n: int, seed: int) -> list[tuple[GeoPoint, str]]:
    """Sensors of two types over 0..20, a third of them on tile lines
    or corners."""
    rng = np.random.default_rng(seed)
    e = TILE_EXTENT_DEGREES
    out = []
    for i in range(n):
        x, y = (float(v) for v in rng.uniform(0.0, 20.0, 2))
        if i % 3 == 0:
            x = round(x / e) * e
        if i % 6 == 0:
            y = round(y / e) * e
        out.append((GeoPoint(x, y), "water" if i % 4 == 0 else "air"))
    return out


@pytest.mark.parametrize("execution", ["inprocess", "process"])
def test_summary_follows_joins_leaves_and_rebalance_steps(execution):
    fed = FederatedPortal(
        n_shards=2,
        max_sensors_per_query=None,
        federation=FederationConfig(execution=execution),
    )
    with fed:
        for location, kind in _fleet_on_lines(120, seed=5):
            fed.register_sensor(location, expiry_seconds=600.0, sensor_type=kind)
        fed.rebuild_index()
        _assert_matches(fed, _points(fed))
        assert fed.occupied_tiles("water") != fed.occupied_tiles(None)
        mover = ShardMover(fed)
        # Joins on a corner and a line of tiles no sensor held, and a
        # crowd beside shard 0 that unbalances the fleet.
        x0 = fed.directory.entry(0).mbr.min_x
        joins = [
            JoinSpec(GeoPoint(25.0, 25.0), 600.0, sensor_type="air"),
            JoinSpec(GeoPoint(30.25, 22.5), 600.0, sensor_type="water"),
        ] + [
            JoinSpec(GeoPoint(x0 + 0.01 * k, 1.0), 600.0, sensor_type="air")
            for k in range(40)
        ]
        mover.absorb_joins(joins)
        occupied = fed.occupied_tiles(None)
        assert {(49, 49), (50, 49), (49, 50), (50, 50), (60, 44), (60, 45)} <= occupied
        _assert_matches(fed, _points(fed))
        # Leave the corner joiner: its four tiles hold nobody again.
        corner = next(s for s in fed.registry if s.location == GeoPoint(25.0, 25.0))
        mover.absorb_leaves([corner.sensor_id])
        assert (50, 50) not in fed.occupied_tiles(None)
        _assert_matches(fed, _points(fed))
        version = fed.directory.version
        report = Rebalancer(
            fed, RebalanceConfig(max_moves_per_step=16, imbalance_tolerance=0.0)
        ).step()
        assert report.op != "noop" and fed.directory.version > version
        _assert_matches(fed, _points(fed))
        # Dirty: not known until the next build.
        fed.register_sensor(GeoPoint(1.0, 1.0), expiry_seconds=600.0)
        assert fed.occupied_tiles(None) is None


def test_portal_summary_is_its_indexed_fleet():
    portal = SensorMapPortal(max_sensors_per_query=None)
    fleet = _fleet_on_lines(80, seed=9)
    for location, kind in fleet:
        portal.register_sensor(location, expiry_seconds=600.0, sensor_type=kind)
    assert portal.occupied_tiles(None) is None  # not built yet
    portal.rebuild_index()
    _assert_matches(portal, [(p.x, p.y, kind) for p, kind in fleet])
    portal.register_sensor(GeoPoint(40.0, 40.0), expiry_seconds=600.0)
    assert portal.occupied_tiles(None) is None
    portal.rebuild_index()
    assert (80, 80) in portal.occupied_tiles("generic")
