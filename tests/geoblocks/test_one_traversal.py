"""A planned polygon is one traversal.

The cell plan of a polygon is provenance only: the answer is one exact
scan of the polygon itself, riding the tick's shared scan — one probe
round per type tree, the plain traversal's readings — and the plan's
counts are read off the grid as the tick begins.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import COLRTreeConfig
from repro.geoblocks import GeoBlockConfig, PolygonResult
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.transport import TransportConfig

from tests.geoblocks.conftest import sensor_ids
from tests.portal.reference_execute import reference_execute

STALENESS = 120.0


def _hexagon(cx: float, cy: float, r: float) -> Polygon:
    return Polygon(
        GeoPoint(cx + r * math.cos(a), cy + r * math.sin(a))
        for a in (k * math.pi / 3 for k in range(6))
    )


HEXAGON = _hexagon(5.0, 5.0, 1.8)
HEXAGON_QUERY = SensorQuery(region=HEXAGON, staleness_seconds=STALENESS)


def _fleet_portal(flaky: bool = False) -> SensorMapPortal:
    """600 sensors of two types over a 10° square, 1° cells and the
    default configured transport: the hexagon holds 36 of them and four
    interior cells.  ``flaky`` makes probes fail, time out and retry,
    so network draws show in the answer."""
    portal = SensorMapPortal(
        max_sensors_per_query=None,
        transport=TransportConfig(),
        network_options=(
            {"latency_jitter": 0.3, "timeout_seconds": 0.45} if flaky else None
        ),
        geoblocks=GeoBlockConfig(cell_degrees=1.0),
    )
    rng = np.random.default_rng(3)
    for i in range(600):
        location = GeoPoint(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        expiry = float(rng.uniform(120, 600))
        availability = 0.35 if rng.random() < 0.3 else 0.95
        portal.register_sensor(
            location,
            expiry_seconds=expiry,
            sensor_type=("temperature", "wind")[i % 2],
            availability=availability if flaky else 1.0,
        )
    portal.rebuild_index()
    return portal


def _plain(portal: SensorMapPortal, region=HEXAGON):
    """The plain traversal with per-sensor answers, one per type tree."""
    now = portal.clock.now()
    return [
        tree.query(
            region,
            now=now,
            max_staleness=STALENESS,
            sample_size=0,
            aggregate_termination=False,
        )
        for tree in portal._trees.values()
    ]


class TestOneRoundPerTree:
    def test_planned_hexagon_costs_what_the_plain_traversal_costs(self):
        planned = _fleet_portal().execute(HEXAGON_QUERY)
        assert isinstance(planned, PolygonResult)
        assert planned.interior_cells > 0 and planned.boundary_cells > 0
        twin = _fleet_portal()
        plain = _plain(twin)
        assert [a.stats.probe_batches for a in planned.answers] == [1, 1]
        assert planned.collection_seconds == sum(
            a.stats.collection_latency_seconds for a in plain
        )
        assert planned.processing_seconds == sum(
            twin.cost_model.processing_seconds(a.stats) for a in plain
        )

    def test_planned_polygon_shares_the_ticks_probe_round(self):
        portal = _fleet_portal()
        cover = SensorQuery(region=Rect(3.0, 3.0, 7.0, 7.0), staleness_seconds=STALENESS)
        batch = portal.execute_batch([cover, HEXAGON_QUERY])
        viewport, planned = batch.results
        assert isinstance(planned, PolygonResult)
        # The viewport asked first and owns every probe; the polygon's
        # requests coalesce into the same round.
        assert [a.stats.probe_batches for a in planned.answers] == [1, 1]
        assert sum(a.stats.sensors_probed for a in planned.answers) == 0
        assert sum(a.stats.probes_coalesced for a in planned.answers) > 0
        assert portal.network.stats.probes_attempted == sum(
            a.stats.sensors_probed for a in viewport.answers
        )


class TestPlannedIsThePlainTraversal:
    def test_cold_readings_equal_the_reference_bit_for_bit(self):
        portal, reference_portal = _fleet_portal(flaky=True), _fleet_portal(flaky=True)
        planned = portal.execute(HEXAGON_QUERY)
        reference = reference_execute(reference_portal, HEXAGON_QUERY)
        assert isinstance(planned, PolygonResult)
        assert len(planned.answers) == len(reference.answers)
        for a, b in zip(planned.answers, reference.answers):
            assert a.probed_readings == b.probed_readings
            assert a.cached_readings == b.cached_readings == []
            assert a.stats.sensors_probed == b.stats.sensors_probed
        # Same probe list, same draws: the networks agree on every
        # counter.
        assert portal.network.stats == reference_portal.network.stats

    def test_warm_answer_holds_the_plain_traversals_sensors(self):
        portal, twin = _fleet_portal(flaky=True), _fleet_portal(flaky=True)
        warm = SensorQuery(region=Rect(2.0, 2.0, 8.0, 8.0), staleness_seconds=STALENESS)
        for p in (portal, twin):
            p.execute(warm)
        planned = portal.execute(HEXAGON_QUERY)
        assert isinstance(planned, PolygonResult)
        assert sum(len(a.cached_readings) for a in planned.answers) > 0
        assert sensor_ids(planned) == {
            r.sensor_id
            for a in _plain(twin)
            for r in list(a.probed_readings) + list(a.cached_readings)
        }


def _lattice_portal() -> SensorMapPortal:
    """Four reliable sensors in every 0.1° cell of a 1° square, none on
    a cell edge."""
    portal = SensorMapPortal(
        config=COLRTreeConfig(max_expiry_seconds=600.0, slot_seconds=120.0),
        max_sensors_per_query=None,
        geoblocks=GeoBlockConfig(cell_degrees=0.1),
    )
    for ix in range(20):
        for iy in range(20):
            portal.register_sensor(
                GeoPoint((ix + 0.5) * 0.05, (iy + 0.5) * 0.05),
                expiry_seconds=600.0,
                availability=1.0,
            )
    portal.rebuild_index()
    return portal


def test_cell_counts_on_a_fine_grid():
    """``grid_cells_served`` counts interior cells fresh when the tick
    began; ``interior_probes`` the query's probes of interior sensors."""
    portal = _lattice_portal()
    query = SensorQuery(region=_hexagon(0.5, 0.5, 0.4), staleness_seconds=STALENESS)
    cold = portal.execute(query)
    assert isinstance(cold, PolygonResult) and cold.interior_cells > 0
    assert cold.grid_cells_served == 0
    assert cold.interior_probes == 4 * cold.interior_cells
    warm = portal.execute(query)
    assert warm.interior_probes == 0
    assert warm.grid_cells_served == warm.interior_cells
    assert sum(a.stats.sensors_probed for a in warm.answers) == 0
    assert sensor_ids(warm) == sensor_ids(cold)
