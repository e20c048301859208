"""The fleets, workloads and query-stream meter the benches share.

The synthetic fleet and the hotspot viewport pool feed the subsystem
benches; :class:`EvalSetup` (the Live-Local workload with a factory per
evaluated system) and :func:`run_query_stream` feed the paper's figures
and ablations.  All are seeded and draw in a fixed order (all x, all y,
all expiries, then whatever the availability rule draws), so every bench
that names the same ``(n, seed)`` sees the same sensors, and the
deterministic leaves of its artifact stay equal run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.baselines import FlatCache, full_colr_tree, hierarchical_cache, plain_rtree
from repro.core.config import COLRTreeConfig
from repro.core.lookup import QueryAnswer, Region
from repro.core.stats import ProcessingCostModel, QueryStats
from repro.core.tree import COLRTree
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.sensors.availability import AvailabilityModel
from repro.sensors.network import SensorNetwork
from repro.sensors.sensor import Sensor
from repro.workloads.livelocal import LiveLocalWorkload, QuerySpec

EXTENT = 100.0
STALENESS = 120.0
TICK_SECONDS = 45.0

# The mixed fleet of the transport / federation / parallel benches: four
# sensor types (one probe round per tree per tick), 70% reliable sensors
# and 30% flaky ones behind a jittered network with a probe timeout.
SENSOR_TYPES = ("temperature", "humidity", "wind", "rain")
RELIABLE_AVAILABILITY = 0.95
FLAKY_AVAILABILITY = 0.35
FLAKY_FRACTION = 0.3
NETWORK_OPTIONS = {"latency_jitter": 0.3, "timeout_seconds": 0.45}

AvailabilityRule = Callable[[np.random.Generator, np.ndarray], np.ndarray]


def flaky_mix(
    fraction: float = FLAKY_FRACTION, reliable: float = RELIABLE_AVAILABILITY
) -> AvailabilityRule:
    """An availability rule: a random ``fraction`` of the fleet is flaky,
    the rest answers with probability ``reliable``."""
    return lambda rng, xs: np.where(
        rng.random(len(xs)) < fraction, FLAKY_AVAILABILITY, reliable
    )


def uniform_fleet(
    n: int,
    seed: int,
    expiry: tuple[float, float] = (120.0, 600.0),
    types: Sequence[str] = ("generic",),
    availability: float | AvailabilityRule = 1.0,
) -> list[Sensor]:
    """``n`` sensors uniform over the extent with ids ``0..n-1``, expiry
    uniform in ``expiry``, types assigned round-robin, and availability
    either one value or a rule ``(rng, xs) -> per-sensor array`` applied
    after the three coordinate columns are drawn."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, EXTENT, n)
    ys = rng.uniform(0.0, EXTENT, n)
    expiries = rng.uniform(*expiry, n)
    if callable(availability):
        available = availability(rng, xs)
    else:
        available = np.full(n, availability)
    return [
        Sensor(
            sensor_id=i,
            location=GeoPoint(float(xs[i]), float(ys[i])),
            expiry_seconds=float(expiries[i]),
            sensor_type=types[i % len(types)],
            availability=float(available[i]),
        )
        for i in range(n)
    ]


def uncapped_portal(sensors: list[Sensor], **options) -> SensorMapPortal:
    """A built portal over ``sensors`` with no per-query sensor cap: the
    benches count whole fleets, and the tile and cell layers need exact
    sub-queries to stay exact."""
    portal = SensorMapPortal(max_sensors_per_query=None, **options)
    portal.register_all(sensors)
    portal.rebuild_index()
    return portal


def hotspot_pool(
    pool_size: int, seed: int, half_range: tuple[float, float], margin: float = 15.0
) -> list[Rect]:
    """``pool_size`` square viewports centred at least ``margin`` from
    the extent's edges, half-width uniform in ``half_range``, clipped to
    the extent."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(pool_size):
        cx = float(rng.uniform(margin, EXTENT - margin))
        cy = float(rng.uniform(margin, EXTENT - margin))
        half = float(rng.uniform(*half_range))
        pool.append(
            Rect(
                max(0.0, cx - half),
                max(0.0, cy - half),
                min(EXTENT, cx + half),
                min(EXTENT, cy + half),
            )
        )
    return pool


def hotspot_viewports(
    level: int, seed: int, half_range: tuple[float, float]
) -> list[SensorQuery]:
    """``level`` concurrent viewport queries drawn round-robin from a
    pool of distinct hotspots — the many-users-same-map-tile shape that
    makes coalescing matter.  The pool grows sublinearly with the level,
    so higher concurrency means more sharing, not just more regions.
    ``half_range`` sets the regime: a few dozen sensors per viewport
    (batch, ``(1, 2)``: one round trip per query vs one per tick), a few
    hundred (transport, ``(1.5, 3)``), or thousands at the 40k fleet
    (federation, ``(8, 20)``: probe rounds are volume-bound, which is
    where splitting the fleet splits collection time)."""
    pool = hotspot_pool(max(1, level // 4), seed, half_range)
    return [
        SensorQuery(region=pool[i % len(pool)], staleness_seconds=STALENESS)
        for i in range(level)
    ]


# ----------------------------------------------------------------------
# The paper's evaluation: one Live-Local workload, four systems, one meter
# ----------------------------------------------------------------------
@dataclass
class EvalSetup:
    """One workload instance with factories for the evaluated systems.

    Each evaluated configuration gets its own network instance (so probe
    meters don't mix) built over the *same* sensor population with the
    same seed, keeping ground-truth availability draws comparable across
    systems.  Default scale is bench-friendly; paper scale is 370 k
    sensors / 106 k queries.
    """

    n_sensors: int = 40_000
    n_queries: int = 500
    expiry_seconds: object = 300.0
    availability: object = 0.9
    staleness_seconds: float = 240.0
    sample_size: int = 30
    mean_interarrival_seconds: float = 0.5
    seed: int = 0
    config: COLRTreeConfig = field(
        default_factory=lambda: COLRTreeConfig(
            fanout=8,
            leaf_capacity=32,
            max_expiry_seconds=600.0,
            slot_seconds=120.0,
            terminal_level=2,
            oversample_level=4,
        )
    )
    cost_model: ProcessingCostModel = field(default_factory=ProcessingCostModel)

    def __post_init__(self) -> None:
        self._workload = LiveLocalWorkload(
            n_sensors=self.n_sensors,
            n_queries=self.n_queries,
            expiry_seconds=self.expiry_seconds,
            availability=self.availability,
            staleness_seconds=self.staleness_seconds,
            sample_size=self.sample_size,
            mean_interarrival_seconds=self.mean_interarrival_seconds,
            seed=self.seed,
        )
        self._sensors: list[Sensor] | None = None
        self._queries: list[QuerySpec] | None = None

    @property
    def sensors(self) -> list[Sensor]:
        if self._sensors is None:
            self._sensors = self._workload.sensors()
        return self._sensors

    @property
    def queries(self) -> list[QuerySpec]:
        if self._queries is None:
            self._queries = self._workload.queries()
        return self._queries

    # System factories (fresh caches/meters each call)
    def _network(self, model: AvailabilityModel | None = None) -> SensorNetwork:
        return SensorNetwork(
            self.sensors, availability_model=model, seed=self.seed + 1
        )

    def make_flat_cache(self, cache_capacity: int | None = None) -> FlatCache:
        return FlatCache(
            self.sensors,
            self._network(),
            cost_model=self.cost_model,
            cache_capacity=cache_capacity,
        )

    def make_plain_rtree(self) -> COLRTree:
        return plain_rtree(
            self.sensors, self.config, self._network(), cost_model=self.cost_model
        )

    def make_hierarchical_cache(self, config: COLRTreeConfig | None = None) -> COLRTree:
        model = AvailabilityModel()
        return hierarchical_cache(
            self.sensors,
            config if config is not None else self.config,
            self._network(model),
            availability_model=model,
            cost_model=self.cost_model,
        )

    def make_colr_tree(self, config: COLRTreeConfig | None = None) -> COLRTree:
        model = AvailabilityModel()
        return full_colr_tree(
            self.sensors,
            config if config is not None else self.config,
            self._network(model),
            availability_model=model,
            cost_model=self.cost_model,
        )

    def cache_capacity_for_fraction(self, fraction: float) -> int:
        """Cache limit as a fraction of the sensor population (the
        Figure 5/6 sweep parameter)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        return max(1, int(round(fraction * self.n_sensors)))


def ideal_result_sizes(
    sensors: Sequence[Sensor], queries: Sequence[QuerySpec]
) -> np.ndarray:
    """Exact sensor count inside each query's rectangle (the paper's
    *ideal result set size*: regardless of sampling or caching)."""
    if not sensors:
        return np.zeros(len(queries), dtype=np.int64)
    xs = np.array([s.location.x for s in sensors])
    ys = np.array([s.location.y for s in sensors])
    out = np.empty(len(queries), dtype=np.int64)
    for i, spec in enumerate(queries):
        r = spec.region
        mask = (xs >= r.min_x) & (xs <= r.max_x) & (ys >= r.min_y) & (ys <= r.max_y)
        out[i] = int(mask.sum())
    return out


class SystemUnderTest(Protocol):
    """What the meter needs from an evaluated system: flat cache, plain
    R-tree, hierarchical cache, COLR-Tree and the relational
    implementation all answer ``query`` with a
    :class:`~repro.core.lookup.QueryAnswer`."""

    def query(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        sample_size: int | None = None,
    ) -> QueryAnswer: ...

    def processing_seconds(self, stats: QueryStats) -> float: ...


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """Per-query metering: what the figures and ablations read."""

    sensors_probed: int
    nodes_traversed: int
    cached_nodes_accessed: int
    maintenance_ops: int
    result_weight: int
    processing_seconds: float
    collection_seconds: float
    target_size: int
    terminal_count: int
    terminal_pde: float


@dataclass
class RunResult:
    """A full stream run."""

    records: list[QueryRecord] = field(default_factory=list)

    def mean(self, attribute: str) -> float:
        if not self.records:
            raise ValueError("no records")
        return sum(getattr(r, attribute) for r in self.records) / len(self.records)


def run_query_stream(
    system: SystemUnderTest,
    queries: Sequence[QuerySpec],
    sample_size: int | None = None,
    use_sampling: bool = True,
) -> RunResult:
    """Drive every query through the system in arrival order.

    ``sample_size`` overrides the per-query target when given;
    ``use_sampling=False`` forces exact lookups regardless of targets
    (baselines ignore the target anyway).
    """
    result = RunResult()
    for spec in queries:
        target = sample_size if sample_size is not None else spec.sample_size
        effective = target if use_sampling else 0
        answer = system.query(
            spec.region,
            now=spec.at_time,
            max_staleness=spec.staleness_seconds,
            sample_size=effective,
        )
        stats = answer.stats
        result.records.append(
            QueryRecord(
                sensors_probed=stats.sensors_probed,
                nodes_traversed=stats.nodes_traversed,
                cached_nodes_accessed=stats.cached_nodes_accessed,
                maintenance_ops=stats.maintenance_ops,
                result_weight=answer.result_weight,
                processing_seconds=system.processing_seconds(stats),
                collection_seconds=stats.collection_latency_seconds,
                target_size=target,
                terminal_count=len(answer.terminals),
                terminal_pde=probe_discretization_error(answer),
            )
        )
    return result


def probe_discretization_error(answer: QueryAnswer) -> float:
    """Figure 6's per-query probe discretization error.

    Mean over terminal access points of ``(target - results) / target``
    — positive when terminals under-deliver, negative when cached
    aggregates over-deliver (the cache-induced spatial bias the paper
    discusses).  Terminals with a zero target are skipped.
    """
    terms = [
        (t.target - t.results) / t.target for t in answer.terminals if t.target > 0
    ]
    if not terms:
        return 0.0
    return sum(terms) / len(terms)
