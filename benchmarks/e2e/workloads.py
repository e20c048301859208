"""The six replayed workloads.

Every workload hands the harness the same three things, all derived
from one integer seed: a sensor fleet, the shape of the stack to build
over it (shard count and execution backend — everything else about the
stack is fixed in :func:`harness.build_stack`), and a stream of
operations with *simulated* arrival times.  The harness owns the
replay; nothing here touches a clock or a timer.

Sizes are per **segment**: one run replays ``segments`` independent
segments (fresh process, fresh stack, own sub-seed) and pools their
operations, so a run's operation count is ``segments`` times the
numbers below.  They were sized on the seed commit (2 cores) so that
one segment's measured phase is one to one and a half seconds at the
host's full speed, and are frozen: changing them changes every baseline
number.  Fleets are small (6 k sensors; cost per request is
proportional to the fleet) so that a run fits twice the operations of
a 12 k fleet into the same seconds: the spread between seeds is the
spread of percentiles over 1 400-3 000 draws from a cost distribution
two decades wide, and only more draws narrow it.

``repro.workloads`` generators draw their sub-streams from ``seed``,
``seed + 1``, ``seed + 2`` and ``seed + 3``, so sub-seeds handed to
them must be spaced further apart than that (see
:func:`harness.segment_seed`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from repro.geometry import GeoPoint, Rect
from repro.portal.query import SensorQuery
from repro.rebalance import RebalanceConfig, Rebalancer, ShardMover
from repro.sensors.sensor import Sensor
from repro.workloads import (
    ChurnWorkload,
    LiveLocalWorkload,
    OpenLoopWorkload,
    PolygonWorkload,
)

N_TENANTS = 50
TENANT_ZIPF_S = 1.2
SENSOR_TYPE = "restaurant"
CHURN_EXTENT = 100.0


@dataclass
class Op:
    """One timed call into the stack.

    ``at`` is the simulated arrival (seconds from the start of the
    replay); ``call`` receives the stack and is the only thing inside
    the timer.  ``kind`` is ``"read"`` for front-door requests (the
    harness applies the reading-level output checks to them) or the
    name of a write call."""

    kind: str
    at: float
    call: Callable[["object"], object]
    # Request class inside a mixed stream ("rect", "sampled", ...); the
    # harness keeps a front-door tier count per tag.
    tag: str = ""
    # Workload-specific accounting, run outside the timer after a call
    # that did not raise: (stack, what the call returned, counts).
    after: Callable[["object", object, dict], None] | None = None


@dataclass
class Inputs:
    sensors: list[Sensor]
    ops: Callable[["object"], Iterator[Op]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_shards: int
    execution: str  # FederationConfig.execution
    make: Callable[[int, float], Inputs]
    # (the run's pooled public counters) -> violated shape properties
    shape: Callable[[dict], list[str]]


def _read(at: float, tenant: int, query: SensorQuery, tag: str = "") -> Op:
    return Op("read", at, lambda stack: stack.door.execute(query, tenant=tenant), tag)


def _scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def _tenants(n: int, seed: int) -> np.ndarray:
    """Zipf tenant labels, the same law ``OpenLoopWorkload`` uses."""
    weights = np.arange(1, N_TENANTS + 1, dtype=np.float64) ** (-TENANT_ZIPF_S)
    return np.random.default_rng(seed).choice(
        N_TENANTS, size=n, p=weights / weights.sum()
    )


# ----------------------------------------------------------------------
# Rectangle viewports over the Live-Local fleet
# ----------------------------------------------------------------------
def _livelocal(
    n_sensors: int,
    n_requests: int,
    seed: int,
    availability=0.9,
    revisit: float = 0.0,
    qps: float = 2.0,
    staleness: float = 60.0,
    exact: bool = True,
) -> tuple[list[Sensor], list]:
    base = LiveLocalWorkload(
        n_sensors=n_sensors,
        n_queries=n_requests,
        expiry_seconds=300.0,
        availability=availability,
        revisit_probability=revisit,
        staleness_seconds=staleness,
        seed=seed,
    )
    stream = OpenLoopWorkload(
        base=base,
        n_requests=n_requests,
        n_tenants=N_TENANTS,
        tenant_zipf_s=TENANT_ZIPF_S,
        target_qps=qps,
        exact=exact,
        sensor_type=SENSOR_TYPE,
        seed=seed,
    )
    return base.sensors(), stream.requests()


def _replay_requests(requests) -> Callable[[object], Iterator[Op]]:
    def ops(_stack) -> Iterator[Op]:
        for r in requests:
            yield _read(r.arrival_seconds, r.tenant, r.query)

    return ops


def _make_rect_miss(seed: int, scale: float) -> Inputs:
    # Staleness 20 s, not 60: at 60 s 42 % of the stream is served by
    # L1/L2 (quantized viewports of one hot city share tiles even with
    # revisit 0), which parks the median on the cliff between a 0.5 ms
    # tile compose and a 0.6-20 ms portal execution, where two points of
    # hit ratio move it by 25 %.  At 20 s a quarter hits and the median
    # is a portal execution.
    sensors, requests = _livelocal(
        6_000, _scaled(480, scale), seed, revisit=0.0, qps=2.0, staleness=20.0
    )
    return Inputs(sensors, _replay_requests(requests))


def _hit_ratio(c: dict) -> float:
    hits = c["served.l1"] + c["served.l2"]
    return hits / max(1, hits + c["served.portal"])


def _shape_rect_miss(c: dict) -> list[str]:
    ratio = _hit_ratio(c)
    return [] if ratio <= 0.45 else [f"front-door hit ratio {ratio:.2f} > 0.45"]


def _make_rect_hot(seed: int, scale: float) -> Inputs:
    # The hottest of 50 Zipf tenants sends 28 % of the stream, so the
    # default admission rate (5 q/s per tenant, burst 10) starts to shed
    # at 10 arrivals/s (4 of 40 seeds) and no operation may fail: 6/s.
    # At that rate a 120 s slot window holds ~700 arrivals, so reaching
    # 85 % hits takes a higher revisit share than it would at 50/s.
    sensors, requests = _livelocal(
        6_000, _scaled(4_000, scale), seed, revisit=0.8, qps=6.0, staleness=300.0
    )
    return Inputs(sensors, _replay_requests(requests))


def _shape_rect_hot(c: dict) -> list[str]:
    ratio = _hit_ratio(c)
    return [] if ratio >= 0.85 else [f"front-door hit ratio {ratio:.2f} < 0.85"]


# ----------------------------------------------------------------------
# The paper's own query class: SAMPLESIZE viewports on a flaky fleet
# ----------------------------------------------------------------------
def _flaky_mix(rng: np.random.Generator) -> float:
    """The federation bench's availability mix: 30 % of the fleet
    answers 35 % of the time, the rest 95 %."""
    return 0.35 if rng.random() < 0.3 else 0.95


def _make_sampled(seed: int, scale: float) -> Inputs:
    sensors, requests = _livelocal(
        6_000,
        _scaled(1_500, scale),
        seed,
        availability=_flaky_mix,
        revisit=0.35,
        qps=2.0,
        staleness=120.0,
        exact=False,
    )
    return Inputs(sensors, _replay_requests(requests))


def _shape_sampled(c: dict) -> list[str]:
    rounds = c["federation.topup_rounds"]
    return [] if rounds >= 1 else ["no cross-shard top-up round ran"]


# ----------------------------------------------------------------------
# Polygon viewports (the GeoBlocks query class)
# ----------------------------------------------------------------------
def _polygon_queries(
    n_sensors: int, n: int, seed: int, corridors: bool = True
) -> tuple[list[Sensor], list]:
    workload = PolygonWorkload(
        n_sensors=n_sensors,
        n_queries=n,
        # No city-boundary (concave) polygons: a shard-clipped concave
        # polygon can return sensors outside the region (README,
        # "Findings"), and no operation may fail.
        family_weights=(0.0, 0.5, 0.5) if corridors else (0.0, 0.0, 1.0),
        revisit_probability=0.15,
        # Staleness 60 s, not 300: at 300 s every tile a segment has
        # filled stays usable to its end, so the front-door hit ratio
        # depends on which cities the stream happened to draw early
        # (0.40 +- 0.075 between segments, three times its binomial
        # spread) and the median, a miss, moves 2 % per point of it.  At
        # 60 s the tile cache reaches a steady state inside a segment
        # (0.29 +- 0.044) and the median is steady with it.
        staleness_seconds=60.0,
        seed=seed,
    )
    queries = [
        (
            spec.at_time,
            SensorQuery(
                region=spec.region,
                staleness_seconds=spec.staleness_seconds,
                sensor_type=SENSOR_TYPE,
            ),
        )
        for spec in workload.queries()
    ]
    return workload.sensors(), queries


def _make_polygon(seed: int, scale: float) -> Inputs:
    # 400 arrivals at 2/s end at 200 simulated seconds, inside the
    # sensors' 300 s expiry: run past it and how much of the mass
    # re-probe lands inside the segment decides probes_per_query.
    n = _scaled(400, scale)
    sensors, queries = _polygon_queries(6_000, n, seed)
    tenants = _tenants(n, seed + 4)

    def ops(_stack) -> Iterator[Op]:
        for (at, query), tenant in zip(queries, tenants):
            yield _read(at, int(tenant), query)

    return Inputs(sensors, ops)


def _shape_polygon(c: dict) -> list[str]:
    # With 1-degree geoblock cells these city-scale polygons almost
    # never contain a whole cell, so "served an interior cell from the
    # grid" is not a property the stream has; reaching the planner is.
    cells = c["geoblocks.interior_cells"] + c["geoblocks.boundary_cells"]
    return [] if cells >= 1 else ["no polygon reached the geoblock planner"]


# ----------------------------------------------------------------------
# Every request type across the process backend
# ----------------------------------------------------------------------
def _make_proc_mixed(seed: int, scale: float) -> Inputs:
    n = _scaled(600, scale)
    # Revisit 0.1, not 0.35: at 0.35 the front door serves 37 % of the
    # stream, which parks the median ten points above the cliff between
    # a 0.07 ms hit and a 0.7 ms worker round trip, where it climbs 25 %
    # per five points and swung 17 % between seeds.  At 0.1 a third still
    # hits (tile sharing inside the hot cities) and the swing is 6 %.
    sensors, rects = _livelocal(
        3_000, n, seed, revisit=0.1, qps=2.0, staleness=120.0
    )
    # Convex city-scale polygons only: the process backend cannot
    # compose polygons from L2 tiles, so a state-long corridor runs
    # hundreds of boundary sub-queries back to back and one such request
    # is a fifth of the run's modeled seconds (428 s of 1 912 s).
    _, polygons = _polygon_queries(3_000, n, seed, corridors=False)
    # Exactly 60 % exact rect / 25 % sampled / 15 % polygon in a seeded
    # order: an i.i.d. draw would let the share of (expensive) sampled
    # requests wander by +-5 % between seeds and the means with it.
    kinds = np.random.default_rng(seed + 5).permutation(
        np.repeat((0, 1, 2), (n - n // 4 - n * 3 // 20, n // 4, n * 3 // 20))
    )

    def ops(_stack) -> Iterator[Op]:
        for i, request in enumerate(rects):
            query, tag = request.query, "rect"
            if kinds[i] == 1:
                query, tag = replace(query, sample_size=100), "sampled"
            elif kinds[i] == 2:
                query, tag = replace(polygons[i][1], staleness_seconds=120.0), "polygon"
            yield _read(request.arrival_seconds, request.tenant, query, tag)

    return Inputs(sensors, ops)


def _shape_proc_mixed(c: dict) -> list[str]:
    live, expected = c["parallel.live_workers"], 2 * c["segments"]
    return [] if live == expected else [f"{live} live worker pids, expected {expected}"]


# ----------------------------------------------------------------------
# Writes beside reads
# ----------------------------------------------------------------------
# 300 reads a tick, 5 arrivals/s: the nine writes of a segment are
# half of its wall time, not more, because their cost follows the disk
# (journaling and checkpointing the restaged shards) and a slow phase
# of the host's disk, which no CPU probe sees, moved throughput_qps by
# as much as the writes' share of it.
CHURN_TICKS = 2
CHURN_READS_PER_TICK = 300
CHURN_TICK_SECONDS = 60.0


def _count_rebalance(stack, reports, counts: dict) -> None:
    """Committed steps, sensors moved, and the population imbalance
    ``(max - min) / mean`` the step left behind."""
    done = [r for r in reports if r.op != "aborted"]
    weights = [e.weight for e in stack.fed.directory.entries()]
    for key, value in (
        ("rebalance.steps", len(done)),
        ("rebalance.moves", sum(r.moved for r in done)),
        ("rebalance.runs", 1),
        ("rebalance.imbalance_sum", (max(weights) - min(weights)) * len(weights) / sum(weights)),
    ):
        counts[key] = counts.get(key, 0) + value


def _make_churn_rw(seed: int, scale: float) -> Inputs:
    n_sensors = 4_000
    rng = np.random.default_rng(seed)
    sensors = [
        Sensor(
            sensor_id=i,
            location=GeoPoint(float(x), float(y)),
            expiry_seconds=600.0,
            availability=1.0,
        )
        for i, (x, y) in enumerate(rng.random((n_sensors, 2)) * CHURN_EXTENT)
    ]
    ticks = _scaled(CHURN_TICKS, scale)
    churn = ChurnWorkload(
        extent=CHURN_EXTENT, join_rate=50.0, leave_rate=25.0, seed=seed + 1
    )
    views = np.random.default_rng(seed + 2)
    tenants = _tenants(ticks * CHURN_READS_PER_TICK, seed + 3)

    def viewport() -> SensorQuery:
        cx, cy = views.uniform(5.0, CHURN_EXTENT - 5.0, size=2)
        half = float(views.uniform(1.0, 6.0))
        return SensorQuery(
            region=Rect(cx - half, cy - half, cx + half, cy + half),
            staleness_seconds=300.0,
        )

    def ops(stack) -> Iterator[Op]:
        fed = stack.fed
        mover = ShardMover(fed)
        # Tolerance 0.05, not the default 0.10: two ticks of 50 joins on
        # 1 000-sensor shards seldom open a 10 % gap, and a rebalancer
        # that never commits a step leaves its layer unmeasured.
        rebalancer = Rebalancer(
            fed, RebalanceConfig(max_moves_per_step=200, imbalance_tolerance=0.05)
        )
        at = 0.0
        for tick in range(ticks):
            step = churn.tick(sorted(s.sensor_id for s in fed.registry))
            if step.joins:
                yield Op("absorb_joins", at, lambda _s: mover.absorb_joins(step.joins))
            if step.leave_ids:
                yield Op(
                    "absorb_leaves", at, lambda _s: mover.absorb_leaves(step.leave_ids)
                )
            yield Op(
                "rebalance",
                at,
                lambda _s: rebalancer.run(max_steps=2),
                after=_count_rebalance,
            )
            if tick % 2 == 1:
                yield Op("checkpoint", at, lambda _s: fed.checkpoint())
            for i in range(CHURN_READS_PER_TICK):
                at += CHURN_TICK_SECONDS / CHURN_READS_PER_TICK
                tenant = int(tenants[tick * CHURN_READS_PER_TICK + i])
                yield _read(at, tenant, viewport())
        # One crash recovery from the shard's data directory, then a
        # read that has to pay for it.
        yield Op("kill_shard", at, lambda _s: fed.kill_shard(0))
        yield Op("revive_shard", at, lambda _s: fed.revive_shard(0))
        yield _read(at + 1.0, 0, viewport())

    return Inputs(sensors, ops)


def _shape_churn_rw(c: dict) -> list[str]:
    errors = []
    if c.get("rebalance.steps", 0) < 1:
        errors.append("no rebalance step committed")
    if c["fleet.directory_weight"] != c["fleet.size"]:
        errors.append(
            f"directory weight {c['fleet.directory_weight']} != fleet {c['fleet.size']}"
        )
    return errors


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rect_miss",
            "distinct exact viewports, arrivals slower than cache expiry: most "
            "requests reach the shards and probe (portal, core, transport, "
            "sensors, storage work; front door idles)",
            4,
            "inprocess",
            _make_rect_miss,
            _shape_rect_miss,
        ),
        Workload(
            "rect_hot",
            "revisited exact viewports inside one staleness window: >=85% L1/L2 "
            "hits, so the front door works and everything below it is bypassed",
            4,
            "inprocess",
            _make_rect_hot,
            _shape_rect_hot,
        ),
        Workload(
            "sampled",
            "the paper's SAMPLESIZE query on a flaky fleet: layered sampling, "
            "retries and cross-shard top-ups work; the L2 tile cache cannot serve it",
            4,
            "inprocess",
            _make_sampled,
            _shape_sampled,
        ),
        Workload(
            "polygon",
            "corridor and convex polygon viewports: geoblock grid, "
            "clipped boundary sub-queries and geometry predicates carry the cost",
            4,
            "inprocess",
            _make_polygon,
            _shape_polygon,
        ),
        Workload(
            "proc_mixed",
            "rect, sampled and polygon requests over two worker processes: every "
            "request crosses the op pipe, pickling and shared-memory kernels",
            2,
            "process",
            _make_proc_mixed,
            _shape_proc_mixed,
        ),
        Workload(
            "churn_rw",
            "joins, leaves, rebalance steps, checkpoints and one crash recovery "
            "beside reads: p50 is the read path, p99 the write path",
            4,
            "inprocess",
            _make_churn_rw,
            _shape_churn_rw,
        ),
    )
}
