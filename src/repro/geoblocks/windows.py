"""Sliding analytic windows over the geoblock grid.

An analytic window is a **cell-granular** standing query: a moving
viewport (map pan) and/or a k-step temporal window whose aggregate is
maintained incrementally.  The window quantizes its viewport to the
geoblock grid — it answers over the full population of every covered
cell, the same serving contract the front door's tile quantization
uses — which is exactly what makes incrementality possible: when the
viewport slides, cells in the overlap of consecutive covers are *reused*
from the previous step's snapshots and only the symmetric difference
(the enter strip; the leave strip is dropped) is recomputed.

A reused snapshot is **revalidated, not trusted blindly**: it must be
from the grid's current generation, and its readings must be exactly
what the leaf slot caches can serve for the cell's population at the
new step time — an ingest, displacement, eviction, expiry or staleness
lapse in the cell since the capture shows up as a difference (on a
``caching_enabled=False`` tree there are no slot caches to compare
with, and a snapshot serves while its own readings stay fresh).  Any
miss recaptures the cell — from the grid when the whole population is
fresh in the slot caches, else from an exact COLR-Tree sub-query over
the cell rectangle (filtered to the cell's half-open population, so
cells partition sensors and per-cell sketches sum without dedup).

The temporal dimension is a ring of the last ``temporal_steps`` per-step
sketches; the window aggregate combines the ring, giving "avg over the
viewport for the last k refreshes" for free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.aggregates import AggregateSketch, combine
from repro.core.lookup import QueryAnswer
from repro.geometry import Polygon, Rect
from repro.geometry.grid import cell_of_point, cell_rect, cells_covering, rasterize
from repro.portal.portal import PortalResult
from repro.portal.query import SensorQuery
from repro.sensors.sensor import Reading


@dataclass(frozen=True)
class CellSnapshot:
    """One cell's captured answer, revalidated before every reuse."""

    readings: tuple[Reading, ...]
    probed_ids: frozenset[int]
    sketch: AggregateSketch
    generation: int

    def valid_at(self, grid, sensor_type: str, cell: tuple[int, int],
                 now: float, max_staleness: float) -> bool:
        if self.generation != grid.generation:
            return False
        if not grid.portal._trees[sensor_type].config.caching_enabled:
            # No slot caches to differ from: the snapshot is the only
            # copy, and serves while its own readings stay fresh.
            return all(r.is_fresh_at(now, max_staleness) for r in self.readings)
        return self.readings == tuple(
            grid.fresh_readings(sensor_type, cell, now, max_staleness)
        )


@dataclass
class WindowResult(PortalResult):
    """One window step's answer plus its incrementality accounting."""

    step_index: int = 0
    cells_total: int = 0
    cells_reused: int = 0
    cells_refreshed: int = 0
    # combine() of the last `temporal_steps` per-step sketches, reduced
    # by the window's aggregate function; None while the window is empty.
    window_aggregate: float | None = None


class SlidingWindow:
    """A standing cell-granular aggregate window (see module doc)."""

    def __init__(
        self,
        portal,
        staleness_seconds: float,
        sensor_type: str = "generic",
        aggregate: str = "avg",
        temporal_steps: int = 1,
    ) -> None:
        if temporal_steps < 1:
            raise ValueError("temporal_steps must be positive")
        self.portal = portal
        self.staleness_seconds = staleness_seconds
        self.sensor_type = sensor_type
        self.aggregate = aggregate
        # The grid's cells: a snapshot is captured from, and revalidated
        # against, the grid's population of its cell.
        self.cell_degrees = portal.geoblocks().config.cell_degrees
        self.temporal_steps = temporal_steps
        self._snapshots: dict[tuple[int, int], CellSnapshot] = {}
        self._ring: deque[AggregateSketch] = deque(maxlen=temporal_steps)
        self._steps = 0

    # ------------------------------------------------------------------
    def _cover(self, region: Rect | Polygon) -> list[tuple[int, int]]:
        if isinstance(region, Rect):
            return cells_covering(region, self.cell_degrees)
        interior, boundary = rasterize(region, self.cell_degrees)
        return sorted(interior + boundary)

    def _capture(
        self, grid, tree, cell: tuple[int, int], now: float
    ) -> tuple[CellSnapshot, QueryAnswer | None]:
        """Capture one cell: from the grid when fully fresh, exact tree
        sub-query otherwise.  Returns the snapshot plus the tree
        sub-answer (None on a grid serve) so the caller can charge the
        step's stats once, at capture time only."""
        served = grid.serve_cell(
            self.sensor_type, cell, now, self.staleness_seconds
        )
        if served is not None:
            readings = tuple(served)
            probed_ids: frozenset[int] = frozenset()
            sub = None
        else:
            sub = tree.query(
                cell_rect(cell, self.cell_degrees),
                now=now,
                max_staleness=self.staleness_seconds,
                sample_size=0,
                aggregate_termination=False,
            )
            # Closed cell geometry can hand us an edge sensor owned by
            # the neighbouring cell — keep only this cell's (half-open)
            # population so per-cell sketches partition the sensors.
            owned = [
                r
                for r in sub.probed_readings + sub.cached_readings
                if cell_of_point(tree.sensor(r.sensor_id).location,
                                 self.cell_degrees) == cell
            ]
            owned.sort(key=lambda r: r.sensor_id)
            readings = tuple(owned)
            probed = {r.sensor_id for r in sub.probed_readings}
            probed_ids = frozenset(
                r.sensor_id for r in readings if r.sensor_id in probed
            )
        snapshot = CellSnapshot(
            readings=readings,
            probed_ids=probed_ids,
            sketch=AggregateSketch.of(
                (r.value, r.timestamp) for r in readings
            ),
            generation=grid.generation,
        )
        return snapshot, sub

    # ------------------------------------------------------------------
    def step(self, region: Rect | Polygon) -> WindowResult:
        """Advance the window to a (possibly moved) viewport."""
        portal = self.portal
        grid = portal.geoblocks()
        if self.sensor_type not in portal._trees:
            raise KeyError(
                f"no sensors of type {self.sensor_type!r} registered"
            )
        tree = portal._trees[self.sensor_type]
        now = portal.clock.now()
        cover = self._cover(region)

        merged = QueryAnswer()
        reused = 0
        refreshed = 0
        sketches: list[AggregateSketch] = []
        fresh_snaps: dict[tuple[int, int], CellSnapshot] = {}
        for cell in cover:
            snap = self._snapshots.get(cell)
            if snap is not None and snap.valid_at(
                grid, self.sensor_type, cell, now, self.staleness_seconds
            ):
                reused += 1
                for reading in snap.readings:
                    merged.cached_readings.append(reading)
            else:
                snap, sub = self._capture(grid, tree, cell, now)
                refreshed += 1
                if sub is None:
                    merged.stats.readings_scanned += len(snap.readings)
                else:
                    merged.stats.merge(sub.stats)
                    merged.terminals.extend(sub.terminals)
                for reading in snap.readings:
                    if reading.sensor_id in snap.probed_ids:
                        merged.probed_readings.append(reading)
                    else:
                        merged.cached_readings.append(reading)
            fresh_snaps[cell] = snap
            sketches.append(snap.sketch)
        # Cells the viewport left are dropped — window memory is bounded
        # by the current cover.
        self._snapshots = fresh_snaps

        self._ring.append(combine(sketches))
        window_sketch = combine(self._ring)
        try:
            window_aggregate = window_sketch.result(self.aggregate)
        except ValueError:
            window_aggregate = None

        from repro.portal.grouping import group_answer

        query = SensorQuery(
            region=region,
            staleness_seconds=self.staleness_seconds,
            sensor_type=self.sensor_type,
        )
        self._steps += 1
        return WindowResult(
            query=query,
            groups=group_answer(merged, None, tree=tree),
            answers=[merged],
            processing_seconds=portal.cost_model.processing_seconds(
                merged.stats
            ),
            collection_seconds=merged.stats.collection_latency_seconds,
            sample_requested=None,
            step_index=self._steps - 1,
            cells_total=len(cover),
            cells_reused=reused,
            cells_refreshed=refreshed,
            window_aggregate=window_aggregate,
        )
