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

Results land in ``BENCH_federation.json`` (or ``--output``).
``--quick`` shrinks the fleet for CI smoke runs (both parity gates, the
degradation probe and the shortfall probe still run); ``--check``
additionally asserts the acceptance thresholds (>= 1.5x batch-query
throughput at 4 shards vs 1, partial — not failed — answers with a dead
shard, and the shortfall-recovery bounds above).

Run with ``PYTHONPATH=src python -m repro.bench.federation``.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.bench.report import run_stamp
from repro.core.config import COLRTreeConfig
from repro.federation import FederatedPortal, FederationConfig, make_partitioner
from repro.geometry import GeoPoint, Polygon, Rect
from repro.portal import SensorMapPortal, SensorQuery
from repro.transport import TransportConfig

EXTENT = 100.0
STALENESS = 120.0
TICK_SECONDS = 45.0
SENSOR_TYPES = ("temperature", "humidity", "wind", "rain")
RELIABLE_AVAILABILITY = 0.95
FLAKY_AVAILABILITY = 0.35
FLAKY_FRACTION = 0.3
NETWORK_OPTIONS = {"latency_jitter": 0.3, "timeout_seconds": 0.45}

BENCH_FEDERATION = FederationConfig(
    shard_retry_budget=1,
    retry_backoff_base=0.5,
    retry_backoff_multiplier=2.0,
)


def _fleet(
    n_sensors: int,
    seed: int,
    flaky_fraction: float,
    reliable_availability: float = RELIABLE_AVAILABILITY,
):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, EXTENT, n_sensors)
    ys = rng.uniform(0.0, EXTENT, n_sensors)
    expiries = rng.uniform(120.0, 600.0, n_sensors)
    flaky = rng.random(n_sensors) < flaky_fraction
    for i in range(n_sensors):
        yield (
            GeoPoint(float(xs[i]), float(ys[i])),
            float(expiries[i]),
            SENSOR_TYPES[i % len(SENSOR_TYPES)],
            FLAKY_AVAILABILITY if flaky[i] else reliable_availability,
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
    portal = SensorMapPortal(
        config=config,
        max_sensors_per_query=None,
        transport=transport,
        network_options=dict(
            NETWORK_OPTIONS if network_options is None else network_options
        ),
    )
    for location, expiry, sensor_type, availability in _fleet(
        n_sensors, seed, flaky_fraction, reliable_availability
    ):
        portal.register_sensor(
            location, expiry, sensor_type=sensor_type, availability=availability
        )
    portal.rebuild_index()
    return portal


def make_federation(
    n_sensors: int,
    seed: int,
    n_shards: int,
    partitioner_kind: str = "grid",
    transport: TransportConfig | None = None,
    flaky_fraction: float = FLAKY_FRACTION,
    reliable_availability: float = RELIABLE_AVAILABILITY,
    network_options: dict | None = None,
    federation: FederationConfig | None = None,
    config: COLRTreeConfig | None = None,
) -> FederatedPortal:
    portal = FederatedPortal(
        partitioner=make_partitioner(partitioner_kind, n_shards, seed=seed),
        config=config,
        max_sensors_per_query=None,
        transport=transport,
        network_options=dict(
            NETWORK_OPTIONS if network_options is None else network_options
        ),
        federation=BENCH_FEDERATION if federation is None else federation,
    )
    for location, expiry, sensor_type, availability in _fleet(
        n_sensors, seed, flaky_fraction, reliable_availability
    ):
        portal.register_sensor(
            location, expiry, sensor_type=sensor_type, availability=availability
        )
    portal.rebuild_index()
    return portal


def make_viewports(
    level: int, seed: int, half_range: tuple[float, float] = (8.0, 20.0)
) -> list[SensorQuery]:
    """``level`` concurrent viewports drawn round-robin from a hotspot
    pool spread over the whole extent, so a grid federation sees work on
    every shard (same pool shape as ``bench.transport``, but the default
    viewports are wide-area: thousands of in-region sensors at the
    40k-fleet scale, so probe rounds are volume-bound — many connection
    waves — rather than one fixed round trip, which is the regime where
    splitting the fleet splits collection time)."""
    pool_size = max(1, level // 4)
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(pool_size):
        cx = float(rng.uniform(15.0, EXTENT - 15.0))
        cy = float(rng.uniform(15.0, EXTENT - 15.0))
        half = float(rng.uniform(*half_range))
        pool.append(
            Rect(
                max(0.0, cx - half),
                max(0.0, cy - half),
                min(EXTENT, cx + half),
                min(EXTENT, cy + half),
            )
        )
    return [
        SensorQuery(region=pool[i % pool_size], staleness_seconds=STALENESS)
        for i in range(level)
    ]


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
        plain = make_unsharded(
            n_sensors, seed, transport=transport, flaky_fraction=flaky_fraction
        )
        fed = make_federation(
            n_sensors,
            seed,
            n_shards=1,
            transport=transport,
            flaky_fraction=flaky_fraction,
        )
        for phase in ("cold", "warm"):
            for qi, query in enumerate(_parity_queries()):
                _assert_identical(
                    f"{name}/{phase}/q{qi}", plain.execute(query), fed.execute(query)
                )
                cells += 1
            # Batch path over the same matrix, then advance into the
            # next phase so "warm" reuses slot caches across a tick.
            a = plain.execute_batch(_parity_queries())
            b = fed.execute_batch(_parity_queries())
            for qi, (ra, rb) in enumerate(zip(a.results, b.results)):
                _assert_identical(f"{name}/{phase}/batch-q{qi}", ra, rb)
                cells += 1
            if a.stats != b.stats:
                raise AssertionError(f"parity[{name}/{phase}]: batch stats diverged")
            plain.clock.advance(TICK_SECONDS)
            fed.clock.advance(TICK_SECONDS)
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
    det = {"latency_jitter": 0.0}
    # Oversampling off on both sides: with every sensor reliable but
    # *unobserved*, the Beta-prior estimate of 0.5 would double each
    # leaf's probe count, and that rounding noise lands differently on
    # one big tree than on eight small ones — exactly the kind of drift
    # this gate is not about.
    exact = COLRTreeConfig(oversampling_enabled=False)
    for qi, query in enumerate(_parity_queries()):
        reference = make_unsharded(
            n_sensors,
            seed,
            flaky_fraction=0.0,
            reliable_availability=1.0,
            network_options=det,
            config=exact,
        )
        want = reference.execute(query).result_weight
        for n_shards in shard_counts:
            if n_shards == 1:
                continue
            fed = make_federation(
                n_sensors,
                seed,
                n_shards,
                flaky_fraction=0.0,
                reliable_availability=1.0,
                network_options=det,
                config=exact,
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
def run_shard_count(
    n_sensors: int,
    n_shards: int,
    level: int,
    ticks: int,
    seed: int,
    partitioner_kind: str,
) -> dict:
    fed = make_federation(n_sensors, seed, n_shards, partitioner_kind)
    queries = make_viewports(level, seed + level)
    modeled = 0.0
    wall = time.perf_counter()
    for _ in range(ticks):
        batch = fed.execute_batch(queries)
        # The tick's modeled cost is the slowest shard's sub-batch
        # (processing + collection + maintenance + penalties): shards
        # run concurrently, the gather waits for the stragglers.
        modeled += max(batch.shard_seconds.values(), default=0.0)
        fed.clock.advance(TICK_SECONDS)
    wall = time.perf_counter() - wall
    probes = sum(s.network.stats.probes_attempted for s in fed.shards())
    n_queries = ticks * level
    return {
        "shards": n_shards,
        "queries": n_queries,
        "modeled_seconds": modeled,
        "wall_seconds": wall,
        "modeled_throughput_qps": n_queries / max(1e-12, modeled),
        "probes_attempted": probes,
        "subqueries_scattered": fed.stats.subqueries_scattered,
        "shard_populations": [e.weight for e in fed.directory.entries()],
    }


SHORTFALL_FLAKY_AVAILABILITY = 0.1
SHORTFALL_CALIBRATION_OBS = 400


def _skewed_fleet(n_sensors: int, seed: int):
    """A spatially availability-skewed fleet: sensors in the left half
    of the extent are near-dead (a = 0.1), the right half is perfectly
    reliable.  Under a spatial grid partitioner this concentrates the
    flaky sensors on one side's shards, which is exactly the regime
    where per-shard Algorithm 2 cannot help — the flaky shards' whole
    in-region pools are too small to deliver their overlap-weighted
    shares — and only a cross-shard top-up can close the gap."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, EXTENT, n_sensors)
    ys = rng.uniform(0.0, EXTENT, n_sensors)
    expiries = rng.uniform(120.0, 600.0, n_sensors)
    for i in range(n_sensors):
        availability = (
            SHORTFALL_FLAKY_AVAILABILITY if xs[i] < EXTENT / 2.0 else 1.0
        )
        yield (
            GeoPoint(float(xs[i]), float(ys[i])),
            float(expiries[i]),
            SENSOR_TYPES[i % len(SENSOR_TYPES)],
            availability,
        )


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
    for location, expiry, sensor_type, availability in _skewed_fleet(n_sensors, seed):
        fed.register_sensor(
            location, expiry, sensor_type=sensor_type, availability=availability
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
    wall_start = time.perf_counter()
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
        "wall_seconds": time.perf_counter() - wall_start,
    }


def run_degradation(n_sensors: int, seed: int, n_shards: int) -> dict:
    """Kill one shard of a federation mid-workload; the answers must
    degrade to flagged partials, never raise."""
    wall_start = time.perf_counter()
    fed = make_federation(n_sensors, seed, n_shards)
    wide = SensorQuery(
        region=Rect(0.0, 0.0, EXTENT, EXTENT), staleness_seconds=STALENESS
    )
    healthy = fed.execute(wide)
    victim = n_shards // 2
    fed.kill_shard(victim)
    degraded = fed.execute(wide)
    batch = fed.execute_batch(make_viewports(8, seed))
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
        "wall_seconds": time.perf_counter() - wall_start,
    }


def run_federation_bench(
    n_sensors: int = 40_000,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    level: int = 64,
    ticks: int = 6,
    seed: int = 0,
    partitioner_kind: str = "grid",
    quick: bool = False,
    redistribution_rounds: int = 1,
) -> dict:
    if quick:
        n_sensors, shard_counts, level, ticks = 2_500, (1, 2, 4), 32, 4
    bench_start = time.perf_counter()

    parity_cells = check_single_shard_parity(min(n_sensors, 4_000), seed)
    check_conservation(min(n_sensors, 4_000), seed, shard_counts)

    per_count = [
        run_shard_count(n_sensors, n, level, ticks, seed, partitioner_kind)
        for n in shard_counts
    ]
    base = per_count[0]["modeled_seconds"]
    for row in per_count:
        row["speedup_vs_1"] = base / max(1e-12, row["modeled_seconds"])
    degradation = run_degradation(
        min(n_sensors, 4_000), seed, n_shards=max(shard_counts)
    )
    shortfall = run_shortfall_recovery(
        4_000 if quick else n_sensors,
        seed,
        n_shards=8,
        redistribution_rounds=redistribution_rounds,
    )
    return {
        "benchmark": "federation_scatter_gather",
        **run_stamp(),
        "workload": {
            "n_sensors": n_sensors,
            "shard_counts": list(shard_counts),
            "level": level,
            "ticks": ticks,
            "tick_seconds": TICK_SECONDS,
            "seed": seed,
            "quick": quick,
            "partitioner": partitioner_kind,
            "staleness_seconds": STALENESS,
            "sensor_types": list(SENSOR_TYPES),
            "flaky_fraction": FLAKY_FRACTION,
            "availabilities": {
                "reliable": RELIABLE_AVAILABILITY,
                "flaky": FLAKY_AVAILABILITY,
            },
            "network": dict(NETWORK_OPTIONS),
            "federation_config": {
                "shard_retry_budget": BENCH_FEDERATION.shard_retry_budget,
                "retry_backoff_base": BENCH_FEDERATION.retry_backoff_base,
                "retry_backoff_multiplier": BENCH_FEDERATION.retry_backoff_multiplier,
            },
            "redistribution_rounds": redistribution_rounds,
        },
        "parity": {"status": "identical", "cells": parity_cells},
        "wall_seconds": time.perf_counter() - bench_start,
        "shard_counts": per_count,
        "degradation": degradation,
        "shortfall_recovery": shortfall,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sensors", type=int, default=40_000)
    parser.add_argument("--level", type=int, default=64)
    parser.add_argument("--ticks", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--partitioner", choices=("grid", "kmeans"), default="grid"
    )
    parser.add_argument(
        "--redistribution-rounds",
        type=int,
        default=1,
        help="top-up scatter rounds the shortfall-recovery probe grants "
        "the coordinator (the 'off' baseline always runs with 0)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (parity still asserted)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the acceptance thresholds (>=1.5x modeled throughput "
        "at 4 shards vs 1; dead shard degrades to partial answers)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_federation.json"),
        help="where to write the JSON result",
    )
    args = parser.parse_args(argv)
    result = run_federation_bench(
        n_sensors=args.sensors,
        level=args.level,
        ticks=args.ticks,
        seed=args.seed,
        partitioner_kind=args.partitioner,
        quick=args.quick,
        redistribution_rounds=args.redistribution_rounds,
    )
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"parity: {result['parity']['cells']} cells identical")
    for row in result["shard_counts"]:
        print(
            f"  {row['shards']:>2} shards: {row['queries']} queries in "
            f"{row['modeled_seconds']:.2f}s modeled / "
            f"{row['wall_seconds']:.2f}s wall "
            f"({row['modeled_throughput_qps']:.1f} q/s, "
            f"{row['speedup_vs_1']:.2f}x vs 1 shard, "
            f"populations {row['shard_populations']})"
        )
    d = result["degradation"]
    print(
        f"  degradation: shard {d['victim']}/{d['shards']} killed -> partial="
        f"{d['degraded_partial']} weight {d['healthy_weight']} -> "
        f"{d['degraded_weight']}, recovered partial={d['recovered_partial']}"
    )
    s = result["shortfall_recovery"]
    print(
        f"  shortfall: {s['n_shards']} shards, target {s['target_readings']} -> "
        f"round 1 {s['first_round_achieved']} "
        f"({s['first_round_shortfall_fraction']:.1%} short), "
        f"redistributed -> {s['recovered_achieved']} "
        f"(gap {s['recovered_gap_fraction']:.1%}, "
        f"+{s['topup_sensors_gained']} in "
        f"{s['redistribution_rounds_run']} round(s))"
    )
    print(f"federation bench -> {args.output}")
    if args.check:
        four = [r for r in result["shard_counts"] if r["shards"] == 4]
        if not four:
            print("FAIL: no 4-shard level in the sweep")
            return 1
        if four[0]["speedup_vs_1"] < 1.5:
            print(
                f"FAIL: 4-shard modeled speedup {four[0]['speedup_vs_1']:.2f}x "
                "< 1.5x vs 1 shard"
            )
            return 1
        if not d["degraded_partial"] or d["recovered_partial"]:
            print("FAIL: dead shard did not degrade to a flagged partial answer")
            return 1
        if s["first_round_shortfall_fraction"] < 0.10:
            print(
                f"FAIL: skewed-fleet first round only "
                f"{s['first_round_shortfall_fraction']:.1%} short (< 10% — the "
                "probe is not exercising a real shortfall)"
            )
            return 1
        if s["recovered_gap_fraction"] > 0.02 and not s["all_pools_exhausted"]:
            print(
                f"FAIL: redistribution left a {s['recovered_gap_fraction']:.1%} "
                "gap to target without provable pool exhaustion"
            )
            return 1
        print("acceptance thresholds met")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
