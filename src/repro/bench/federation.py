"""Federation benchmark: scatter-gather throughput over portal shards.

Partitions a mixed sensor fleet across 1 / 2 / 4 / 8 shards (spatial
grid partitioner) and drives the same multi-tick batch-query workload
through each federation, measuring *modeled* end-to-end seconds per
tick — for a federation that is the makespan across shards (each shard
owns its sub-batch, its own connection pool and its own maintenance
bill; shards work concurrently), so throughput is queries per modeled
makespan second.  Wall-clock seconds are recorded too, but this process
simulates every shard itself, so the modeled makespan is the scaling
claim.

Before any timing, two parity gates run (the benchmark refuses to time
a federation that changes answers):

* **single-shard bit-identity** — a 1-shard ``FederatedPortal`` and an
  unsharded ``SensorMapPortal`` built from the same fleet run the same
  query matrix (exact / sampled x rectangle / polygon x cold / warm
  cache, over a reliable and a flaky network, sync and transport-parity
  probe paths) and every per-answer field, timing and network counter
  must match exactly.
* **multi-shard conservation** — on a fully reliable fleet, every
  sharded exact answer must carry the same result weight as the
  unsharded one (sampled answers the same sample total).

A degradation probe then kills one shard of the widest federation and
asserts the workload yields flagged partial answers — never an
exception — with the other shards' results intact.

A **shortfall-recovery probe** exercises the coordinator-level
REDISTRIBUTE (Algorithm 2 lifted to the federation): an
availability-skewed fleet (one spatial half near-dead) makes the flaky
shards' overlap-weighted shares exceed what their pools can deliver, so
the first gather of a large sampled query comes up short by >= 10%.
With redistribution off the shortfall stands; with it on, the top-up
round re-splits the shortfall over the healthy shards' residual pools
and the achieved size must recover to within 2% of the target (or every
routed shard must be provably drained).

Gates: both parity gates; >= 1.5x modeled batch-query throughput at 4
shards vs 1; partial — not failed — answers with a dead shard; and the
shortfall-recovery bounds above.  ``--quick`` shrinks the fleet; every
gate and probe still runs.

Run with ``PYTHONPATH=src python -m repro.bench federation``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.bench.fleets import (
    EXTENT,
    FLAKY_FRACTION,
    NETWORK_OPTIONS,
    RELIABLE_AVAILABILITY,
    SENSOR_TYPES,
    STALENESS,
    TICK_SECONDS,
    flaky_mix,
    hotspot_viewports,
    uncapped_portal,
    uniform_fleet,
)
from repro.bench.report import WallTimer, timed
from repro.bench.runner import Bench
from repro.core.config import COLRTreeConfig
from repro.federation import FederatedPortal, FederationConfig, make_partitioner
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.sensors.sensor import Sensor
from repro.transport import TransportConfig

# Wide-area viewports spread over the whole extent, so a grid
# federation sees work on every shard.
VIEWPORT_HALF_RANGE = (8.0, 20.0)

BENCH_FEDERATION = FederationConfig(shard_retry_budget=1)


def _fleet(
    n_sensors: int, seed: int, flaky_fraction: float, reliable_availability: float
) -> list[Sensor]:
    return uniform_fleet(
        n_sensors,
        seed,
        types=SENSOR_TYPES,
        availability=flaky_mix(flaky_fraction, reliable_availability),
    )


def make_unsharded(
    n_sensors: int,
    seed: int,
    transport: TransportConfig | None = None,
    flaky_fraction: float = FLAKY_FRACTION,
    reliable_availability: float = RELIABLE_AVAILABILITY,
    network_options: dict | None = None,
    config: COLRTreeConfig | None = None,
) -> SensorMapPortal:
    return uncapped_portal(
        _fleet(n_sensors, seed, flaky_fraction, reliable_availability),
        config=config,
        transport=transport,
        network_options=dict(
            NETWORK_OPTIONS if network_options is None else network_options
        ),
    )


def make_federation(
    n_sensors: int,
    seed: int,
    n_shards: int,
    transport: TransportConfig | None = None,
    flaky_fraction: float = FLAKY_FRACTION,
    reliable_availability: float = RELIABLE_AVAILABILITY,
    network_options: dict | None = None,
    federation: FederationConfig | None = None,
    config: COLRTreeConfig | None = None,
) -> FederatedPortal:
    portal = FederatedPortal(
        partitioner=make_partitioner("grid", n_shards, seed=seed),
        config=config,
        max_sensors_per_query=None,
        transport=transport,
        network_options=dict(
            NETWORK_OPTIONS if network_options is None else network_options
        ),
        federation=BENCH_FEDERATION if federation is None else federation,
    )
    portal.register_all(_fleet(n_sensors, seed, flaky_fraction, reliable_availability))
    portal.rebuild_index()
    return portal


# ----------------------------------------------------------------------
# Parity gates
# ----------------------------------------------------------------------
def _parity_queries() -> list[SensorQuery]:
    """Exact/sampled x rectangle/polygon (an L-shaped hexagon), typed
    and untyped."""
    rect = Rect(12.0, 18.0, 68.0, 74.0)
    poly = Polygon(
        [
            GeoPoint(10.0, 10.0),
            GeoPoint(90.0, 10.0),
            GeoPoint(90.0, 45.0),
            GeoPoint(50.0, 45.0),
            GeoPoint(50.0, 90.0),
            GeoPoint(10.0, 90.0),
        ]
    )
    return [
        SensorQuery(region=rect, staleness_seconds=STALENESS),
        SensorQuery(region=rect, staleness_seconds=STALENESS, sample_size=40),
        SensorQuery(region=poly, staleness_seconds=STALENESS),
        SensorQuery(region=poly, staleness_seconds=STALENESS, sample_size=25),
        SensorQuery(
            region=rect, staleness_seconds=STALENESS, sensor_type="temperature"
        ),
        SensorQuery(
            region=poly,
            staleness_seconds=60.0,
            sample_size=15,
            sensor_type="humidity",
        ),
    ]


def _assert_identical(context: str, a, b) -> None:
    if len(a.answers) != len(b.answers):
        raise AssertionError(f"parity[{context}]: answer count diverged")
    for x, y in zip(a.answers, b.answers):
        for field in (
            "probed_readings",
            "cached_readings",
            "cached_sketches",
            "cached_sketch_nodes",
            "terminals",
            "stats",
        ):
            if getattr(x, field) != getattr(y, field):
                raise AssertionError(f"parity[{context}]: {field} diverged")
    if a.groups != b.groups:
        raise AssertionError(f"parity[{context}]: display groups diverged")
    if (a.processing_seconds, a.collection_seconds) != (
        b.processing_seconds,
        b.collection_seconds,
    ):
        raise AssertionError(f"parity[{context}]: timings diverged")


def assert_matrix_identical(name: str, a, b) -> int:
    """Run the parity query matrix through portals ``a`` and ``b`` —
    each query on its own, then the matrix as one batch — cold, then
    warm one tick later (slot caches reused); every answer and the batch
    stats must match exactly.  Returns the number of cells compared."""
    cells = 0
    for phase in ("cold", "warm"):
        for qi, query in enumerate(_parity_queries()):
            _assert_identical(f"{name}/{phase}/q{qi}", a.execute(query), b.execute(query))
            cells += 1
        batch_a = a.execute_batch(_parity_queries())
        batch_b = b.execute_batch(_parity_queries())
        for qi, (ra, rb) in enumerate(zip(batch_a.results, batch_b.results)):
            _assert_identical(f"{name}/{phase}/batch-q{qi}", ra, rb)
            cells += 1
        if batch_a.stats != batch_b.stats:
            raise AssertionError(f"parity[{name}/{phase}]: batch stats diverged")
        a.clock.advance(TICK_SECONDS)
        b.clock.advance(TICK_SECONDS)
    return cells


def check_single_shard_parity(n_sensors: int, seed: int) -> int:
    """Gate 1: a one-shard federation must be a bit-identical
    pass-through of the unsharded portal on every query shape, cold and
    warm, over reliable / flaky fleets and sync / transport probe paths.
    Returns the number of (context, query) cells compared."""
    cells = 0
    variants = [
        ("reliable-sync", 0.0, None),
        ("flaky-sync", FLAKY_FRACTION, None),
        ("flaky-transport", FLAKY_FRACTION, TransportConfig.parity()),
    ]
    for name, flaky_fraction, transport in variants:
        fleet = {"transport": transport, "flaky_fraction": flaky_fraction}
        plain = make_unsharded(n_sensors, seed, **fleet)
        fed = make_federation(n_sensors, seed, n_shards=1, **fleet)
        cells += assert_matrix_identical(name, plain, fed)
        if plain.network.stats != fed.shard(0).network.stats:
            raise AssertionError(f"parity[{name}]: network counters diverged")
    return cells


def check_conservation(n_sensors: int, seed: int, shard_counts: Sequence[int]) -> None:
    """Gate 2: on a fully deterministic network (availability 1.0, no
    latency jitter, no probe timeout — probe outcomes carry no RNG),
    sharding must conserve cold-cache answers: exact result weights
    match the unsharded portal one-for-one (shards hold disjoint
    sensors, so exact scatter-gather loses and double-counts nothing)
    and sampled answers probe the full scattered target.  Each query
    runs against fresh portals so slot caches from earlier queries
    cannot blur the comparison (warm-cache identity is gate 1's job at
    one shard; warm multi-shard answers legitimately differ because the
    shard trees cache different node aggregates)."""
    deterministic = {
        "flaky_fraction": 0.0,
        "reliable_availability": 1.0,
        "network_options": {"latency_jitter": 0.0},
        # Oversampling off on both sides: with every sensor reliable but
        # *unobserved*, the Beta-prior estimate of 0.5 would double each
        # leaf's probe count, and that rounding noise lands differently
        # on one big tree than on eight small ones — exactly the kind of
        # drift this gate is not about.
        "config": COLRTreeConfig(oversampling_enabled=False),
    }
    for qi, query in enumerate(_parity_queries()):
        reference = make_unsharded(n_sensors, seed, **deterministic)
        want = reference.execute(query).result_weight
        for n_shards in shard_counts:
            if n_shards == 1:
                continue
            fed = make_federation(
                n_sensors,
                seed,
                n_shards,
                **deterministic,
                # This gate measures what Algorithm 1's *scatter split*
                # conserves on its own; cross-shard top-up rounds
                # legitimately add weight on top and are gated
                # separately by the shortfall-recovery probe.
                federation=replace(BENCH_FEDERATION, redistribution_rounds=0),
            )
            got = fed.execute(query).result_weight
            if query.sample_size:
                # Sampled sizes are only approximately conserved: the
                # scattered shares sum to the unsharded target, but
                # overlap-weighted apportionment estimates per-shard
                # populations, per-shard shortfalls are not topped up
                # here (redistribution is off for this gate), and
                # polygonal regions overshoot their clipped share
                # weights differently per shard geometry.  Bound the
                # drift at 25% (or one whole target for tiny samples).
                slack = max(query.sample_size, int(0.25 * want))
                if abs(got - want) > slack:
                    raise AssertionError(
                        f"conservation: {n_shards} shards q{qi} sampled weight "
                        f"{got} vs {want} (slack {slack})"
                    )
            elif got != want:
                raise AssertionError(
                    f"conservation: {n_shards} shards q{qi} weight "
                    f"{got} != {want}"
                )


# ----------------------------------------------------------------------
# Throughput
# ----------------------------------------------------------------------
def drive_ticks(fed: FederatedPortal, queries: Sequence[SensorQuery], ticks: int) -> dict:
    """Run ``ticks`` batch ticks; report modeled and wall seconds."""
    modeled = 0.0
    coordinator_wall = 0.0
    with WallTimer() as timer:
        for _ in range(ticks):
            # Coordinator wall clock: scatter, shard work (overlapped on
            # the process backend) and gather, without the clock step.
            with WallTimer() as tick:
                batch = fed.execute_batch(queries)
            coordinator_wall += tick.seconds
            # The tick's modeled cost is the slowest shard's sub-batch
            # (processing + collection + maintenance + penalties):
            # shards run concurrently, the gather waits for the
            # stragglers.
            modeled += max(batch.shard_seconds.values(), default=0.0)
            fed.clock.advance(TICK_SECONDS)
    return {
        "modeled_seconds": modeled,
        "wall_seconds": timer.seconds,
        "batch_wall_seconds": coordinator_wall,
    }


def run_shard_count(
    n_sensors: int, n_shards: int, level: int, ticks: int, seed: int
) -> dict:
    fed = make_federation(n_sensors, seed, n_shards)
    driven = drive_ticks(
        fed, hotspot_viewports(level, seed + level, VIEWPORT_HALF_RANGE), ticks
    )
    probes = sum(s.network.stats.probes_attempted for s in fed.shards())
    n_queries = ticks * level
    return {
        "shards": n_shards,
        "queries": n_queries,
        **driven,
        "modeled_throughput_qps": n_queries / max(1e-12, driven["modeled_seconds"]),
        "probes_attempted": probes,
        "subqueries_scattered": fed.stats.subqueries_scattered,
        "shard_populations": [e.weight for e in fed.directory.entries()],
    }


SHORTFALL_FLAKY_AVAILABILITY = 0.1
SHORTFALL_CALIBRATION_OBS = 400


def _skewed_availability(rng, xs):
    """A spatially availability-skewed fleet: sensors in the left half
    of the extent are near-dead (a = 0.1), the right half is perfectly
    reliable.  Under a spatial grid partitioner this concentrates the
    flaky sensors on one side's shards, which is exactly the regime
    where per-shard Algorithm 2 cannot help — the flaky shards' whole
    in-region pools are too small to deliver their overlap-weighted
    shares — and only a cross-shard top-up can close the gap."""
    return [SHORTFALL_FLAKY_AVAILABILITY if x < EXTENT / 2.0 else 1.0 for x in xs]


def make_skewed_federation(
    n_sensors: int, seed: int, n_shards: int, redistribution_rounds: int
) -> FederatedPortal:
    """A federation over the skewed fleet with calibrated availability
    estimates (the deployed portal would have probe history), a
    jitter-free network, and redistribution dialed to
    ``redistribution_rounds``."""
    fed = FederatedPortal(
        partitioner=make_partitioner("grid", n_shards, seed=seed),
        max_sensors_per_query=None,
        network_options={"latency_jitter": 0.0},
        federation=FederationConfig(
            shard_retry_budget=0,
            redistribution_rounds=max(redistribution_rounds, 0),
        ),
    )
    fed.register_all(
        uniform_fleet(
            n_sensors, seed, types=SENSOR_TYPES, availability=_skewed_availability
        )
    )
    fed.rebuild_index()
    obs = SHORTFALL_CALIBRATION_OBS
    for shard in fed.shards():
        for sensor in shard.registry.all():
            successes = round(sensor.availability * obs)
            shard.availability.seed(sensor.sensor_id, successes, obs - successes)
    return fed


def run_shortfall_recovery(
    n_sensors: int, seed: int, n_shards: int = 8, redistribution_rounds: int = 1
) -> dict:
    """Measure the first-round shortfall of a whole-extent sampled query
    on the skewed fleet, then how much a single cross-shard top-up round
    recovers.  Both runs share the fleet, seeds and the round-1 scatter,
    so the delta is redistribution alone.

    The SAMPLESIZE target is an eighth of the fleet (per type tree —
    half the fleet in readings): large enough that the flaky shards'
    shares dwarf what their near-dead pools can deliver (>= 10% first
    round shortfall), small enough that the healthy shards keep genuine
    residual pool for the top-up to draw on.  Shortfall and recovery
    are reported against ``sample_requested`` — the federated target in
    readings, which is the unit ``result_weight`` counts in."""
    target_units = n_sensors // 8
    query = SensorQuery(
        region=Rect(0.0, 0.0, EXTENT, EXTENT),
        staleness_seconds=STALENESS,
        sample_size=target_units,
    )
    off = make_skewed_federation(n_sensors, seed, n_shards, redistribution_rounds=0)
    result_off = off.execute(query)
    first_round = result_off.result_weight

    on = make_skewed_federation(
        n_sensors, seed, n_shards, redistribution_rounds=max(1, redistribution_rounds)
    )
    result_on = on.execute(query)
    recovered = result_on.result_weight

    target = result_on.sample_requested
    assert target is not None and target == result_off.sample_requested
    shortfall_fraction = (target - first_round) / target
    recovered_gap = max(0, target - recovered) / target
    return {
        "n_sensors": n_sensors,
        "n_shards": n_shards,
        "target_units": target_units,
        "target_readings": target,
        "flaky_availability": SHORTFALL_FLAKY_AVAILABILITY,
        "first_round_achieved": first_round,
        "first_round_shortfall_fraction": shortfall_fraction,
        "recovered_achieved": recovered,
        "recovered_gap_fraction": recovered_gap,
        "redistribution_rounds_run": result_on.redistribution_rounds_run,
        "topup_sensors_gained": result_on.topup_sensors_gained,
        "residual_shortfall": result_on.sampled_shortfall,
        "pool_exhausted_shards": list(result_on.pool_exhausted_shards),
        "all_pools_exhausted": len(result_on.pool_exhausted_shards) >= n_shards,
        "topup_collection_charged": result_on.collection_seconds
        > result_off.collection_seconds,
    }


def run_degradation(n_sensors: int, seed: int, n_shards: int) -> dict:
    """Kill one shard of a federation mid-workload; the answers must
    degrade to flagged partials, never raise."""
    fed = make_federation(n_sensors, seed, n_shards)
    wide = SensorQuery(
        region=Rect(0.0, 0.0, EXTENT, EXTENT), staleness_seconds=STALENESS
    )
    healthy = fed.execute(wide)
    victim = n_shards // 2
    fed.kill_shard(victim)
    degraded = fed.execute(wide)
    batch = fed.execute_batch(hotspot_viewports(8, seed, VIEWPORT_HALF_RANGE))
    fed.revive_shard(victim)
    recovered = fed.execute(wide)
    return {
        "shards": n_shards,
        "victim": victim,
        "healthy_weight": healthy.result_weight,
        "degraded_weight": degraded.result_weight,
        "degraded_partial": degraded.partial,
        "degraded_failed_shards": list(degraded.failed_shards),
        "batch_partial": batch.partial,
        "recovered_partial": recovered.partial,
        "shard_retries": fed.stats.shard_retries,
    }


def run(
    n_sensors: int,
    shard_counts: Sequence[int],
    level: int,
    ticks: int,
    shortfall_sensors: int,
    seed: int,
) -> dict:
    gate_sensors = min(n_sensors, 4_000)

    parity_cells = check_single_shard_parity(gate_sensors, seed)
    check_conservation(gate_sensors, seed, shard_counts)

    rows = {n: run_shard_count(n_sensors, n, level, ticks, seed) for n in shard_counts}
    base = rows[shard_counts[0]]["modeled_seconds"]
    for row in rows.values():
        row["modeled_speedup_vs_1"] = base / max(1e-12, row["modeled_seconds"])
    degradation = timed(run_degradation, gate_sensors, seed, max(shard_counts))
    shortfall = timed(run_shortfall_recovery, shortfall_sensors, seed)
    return {
        "phases": {
            "parity": {"cells": parity_cells},
            **{f"shards_{n}": row for n, row in rows.items()},
            "degradation": degradation,
            "shortfall_recovery": shortfall,
        },
        "checks": {
            # Both parity gates raise: reaching this line is the pass.
            "single_shard_bit_identical": parity_cells > 0,
            "multi_shard_weights_conserved": True,
            "modeled_speedup_ge_1.5x_at_4_shards": 4 in rows
            and rows[4]["modeled_speedup_vs_1"] >= 1.5,
            "dead_shard_degrades_to_partial": degradation["degraded_partial"]
            and not degradation["recovered_partial"],
            # Under 10% the probe is not exercising a real shortfall.
            "first_round_shortfall_ge_10pct": shortfall[
                "first_round_shortfall_fraction"
            ]
            >= 0.10,
            "redistribution_recovers_or_pools_exhausted": shortfall[
                "recovered_gap_fraction"
            ]
            <= 0.02
            or shortfall["all_pools_exhausted"],
        },
    }


BENCH = Bench(
    name="federation",
    full={
        "n_sensors": 40_000,
        "shard_counts": (1, 2, 4, 8),
        "level": 64,
        "ticks": 6,
        "shortfall_sensors": 40_000,
        "seed": 0,
    },
    quick={
        "n_sensors": 2_500,
        "shard_counts": (1, 2, 4),
        "level": 32,
        "ticks": 4,
        "shortfall_sensors": 4_000,
        "seed": 0,
    },
    run=run,
)
