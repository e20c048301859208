"""The flat-cache baseline.

The simplest collection-aware design Section VII compares against: one
pool of raw sensor readings (no aggregates, no index) scanned in full
for every query.  Sensors inside the region whose cached reading is
missing, expired or stale are probed; everything else is served from
the pool.  There is no sampling, so large regions probe every matching
sensor on a cold cache — which is exactly why its probe counts and scan
latencies dominate the Figure 4 ratios.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.lookup import QueryAnswer, Region, region_bbox
from repro.core.stats import ProcessingCostModel, QueryStats
from repro.sensors.network import SensorNetwork
from repro.sensors.sensor import Reading, Sensor


class FlatCache:
    """An unindexed reading pool with the same query interface shape as
    :class:`~repro.core.tree.COLRTree` (region, now, staleness)."""

    def __init__(
        self,
        sensors: Sequence[Sensor],
        network: SensorNetwork,
        cost_model: ProcessingCostModel | None = None,
        cache_capacity: int | None = None,
    ) -> None:
        self._sensors = list(sensors)
        # Vectorized directory coordinates: the full scan the flat cache
        # pays per query is charged to readings_scanned either way, but
        # numpy keeps paper-scale populations tractable to simulate.
        self._xs = np.array([s.location.x for s in self._sensors])
        self._ys = np.array([s.location.y for s in self._sensors])
        self.network = network
        self.cost_model = cost_model if cost_model is not None else ProcessingCostModel()
        self.cache_capacity = cache_capacity
        self._pool: dict[int, tuple[Reading, float]] = {}

    def query(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        sample_size: int | None = None,
    ) -> QueryAnswer:
        """Scan the pool, probe uncovered matching sensors.

        ``sample_size`` is accepted for interface parity but ignored —
        the flat cache has no sampling machinery.
        """
        del sample_size
        answer = QueryAnswer()
        stats = answer.stats
        # Full scan of the pool: the scan cost the paper's latency plots
        # penalize.  Expired entries are dropped as they are met.
        stats.readings_scanned += len(self._pool)
        fresh: dict[int, Reading] = {}
        for sensor_id in list(self._pool):
            reading, _ = self._pool[sensor_id]
            if not reading.is_valid_at(now):
                del self._pool[sensor_id]
                continue
            if now - reading.timestamp <= max_staleness:
                fresh[sensor_id] = reading
        # Linear scan of the sensor directory for the spatial filter —
        # there is no index to prune with.
        stats.readings_scanned += len(self._sensors)
        bbox = region_bbox(region)
        mask = (
            (self._xs >= bbox.min_x)
            & (self._xs <= bbox.max_x)
            & (self._ys >= bbox.min_y)
            & (self._ys <= bbox.max_y)
        )
        to_probe: list[int] = []
        for idx in np.flatnonzero(mask):
            sensor = self._sensors[int(idx)]
            if not region.contains_point(sensor.location):
                continue
            cached = fresh.get(sensor.sensor_id)
            if cached is not None:
                answer.cached_readings.append(cached)
            else:
                to_probe.append(sensor.sensor_id)
        if to_probe:
            result = self.network.probe(to_probe, now)
            stats.sensors_probed += len(to_probe)
            stats.probe_successes += len(result.readings)
            stats.probe_batches += 1
            stats.collection_latency_seconds += result.latency_seconds
            for reading in result.readings.values():
                self._pool[reading.sensor_id] = (reading, now)
                stats.maintenance_ops += 1
                answer.probed_readings.append(reading)
            self._enforce_capacity()
        return answer

    def processing_seconds(self, stats: QueryStats) -> float:
        return self.cost_model.processing_seconds(stats)

    def _enforce_capacity(self) -> None:
        """Least-recently-fetched eviction over the whole pool (it has
        no slots to scope the policy to)."""
        if self.cache_capacity is None:
            return
        overflow = len(self._pool) - self.cache_capacity
        if overflow <= 0:
            return
        victims = sorted(self._pool.items(), key=lambda kv: kv[1][1])[:overflow]
        for sensor_id, _ in victims:
            del self._pool[sensor_id]
