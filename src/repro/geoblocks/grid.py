"""The geoblock grid: per-cell populations and a view over the leaf
slot caches.

One grid serves one portal: every registered sensor is assigned to
exactly one (half-open) cell per its location.  That population is all
a cell stores.  Readings are not copied here — serving a cell reads
each of its sensors' current entry straight from the sensor's leaf
:class:`~repro.core.slots.LeafSlotCache`, so the grid sees every probe
fill, batch ingestion, displacement, expiry and capacity eviction the
moment the slot caches apply it, and can never hold more than they do
(the global cache-size constraint of Section IV-A bounds it too).  A
cell whose whole population holds a fresh entry is servable
**probe-free**; anything less falls back to the exact COLR-Tree path
for that cell.

Populations are re-derived from the registry when the portal's index
generation moves (sensors registered, index rebuilt); the freshly
rebuilt trees' cold slot caches are what the view then reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geoblocks.config import GeoBlockConfig
from repro.geometry.grid import cell_of_point
from repro.sensors.sensor import Reading


@dataclass
class CellState:
    """One cell's population: its sensors' ids, ascending."""

    population: list[int] = field(default_factory=list)


class GeoBlockGrid:
    """Per-portal geoblock grid (see module docstring)."""

    def __init__(self, portal, config: GeoBlockConfig | None = None) -> None:
        self.portal = portal
        self.config = config if config is not None else GeoBlockConfig()
        self.generation = -1
        self._cells: dict[str, dict[tuple[int, int], CellState]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """(Re)build populations when the portal's index generation
        moved; a no-op otherwise."""
        portal = self.portal
        portal._ensure_index()
        if self.generation == portal.index_generation:
            return
        c = self.config.cell_degrees
        self._cells = {}
        for sensor in portal.registry:
            cell = cell_of_point(sensor.location, c)
            states = self._cells.setdefault(sensor.sensor_type, {})
            states.setdefault(cell, CellState()).population.append(
                sensor.sensor_id
            )
        for states in self._cells.values():
            for state in states.values():
                state.population.sort()
        self.generation = portal.index_generation

    # ------------------------------------------------------------------
    # The view
    # ------------------------------------------------------------------
    def cell_state(
        self, sensor_type: str, cell: tuple[int, int]
    ) -> CellState | None:
        return self._cells.get(sensor_type, {}).get(cell)

    def fresh_readings(
        self,
        sensor_type: str,
        cell: tuple[int, int],
        now: float,
        max_staleness: float,
    ) -> list[Reading]:
        """What the leaf slot caches can serve right now for a cell's
        population, in sensor-id order: each sensor's current entry if
        it is unexpired and within the freshness bound (the leaf-level
        rule of :meth:`LeafSlotCache.fresh_readings`)."""
        state = self.cell_state(sensor_type, cell)
        if state is None:
            return []
        tree = self.portal._trees[sensor_type]
        out: list[Reading] = []
        for sensor_id in state.population:
            cache = tree.leaf_for(sensor_id).leaf_cache
            cached = cache.get(sensor_id) if cache is not None else None
            if cached is not None and cached.reading.is_fresh_at(
                now, max_staleness
            ):
                out.append(cached.reading)
        return out

    def serve_cell(
        self,
        sensor_type: str,
        cell: tuple[int, int],
        now: float,
        max_staleness: float,
    ) -> list[Reading] | None:
        """The cell's full population as fresh readings (sensor-id
        order), or ``None`` when any sensor lacks a cached reading
        within the freshness bound — the caller then falls back to the
        exact tree path for this cell.  An unpopulated cell serves the
        empty answer (trivially complete)."""
        readings = self.fresh_readings(sensor_type, cell, now, max_staleness)
        state = self.cell_state(sensor_type, cell)
        if state is not None and len(readings) < len(state.population):
            return None
        return readings
