"""Transport benchmark: async probe dispatcher vs synchronous probing.

Drives the same flaky-network multi-tick viewport workload through two
portals:

``sync``
    ``transport=None`` — the dispatcher's parity configuration: every
    batch tick contacts each live sensor once, one blocking collection
    round per tree, failed sensors re-contacted on every tick that
    wants them.
``transport``
    The dispatcher's tables and event queue switched on: per-sensor
    in-flight/recently-probed dedup across overlapping ticks, bounded
    retry with backoff for transient failures, cooldown for sensors the
    availability model has written off, per-tree rounds overlapping on
    the shared connection pool, and completed readings streamed into the
    caches in completion order.

The workload models the regime the dispatcher is built for: a mixed
fleet (70% reliable sensors at availability 0.95, 30% flaky at 0.35),
jittered per-probe latency with a timeout, several sensor types so each
tick fans out one probe round per tree, and ticks arriving faster than
the freshness window so consecutive ticks re-request recently-answered
sensors.

Costs follow the repo's end-to-end convention: modeled processing
seconds (including grouped-ingestion maintenance, wherever it is
metered) plus simulated collection seconds.  The sync arm serializes
one round per tree; the transport arm pays the makespan of its
overlapped rounds.  Wire cost is the network's ``probes_attempted``
counter — retries count against the transport arm, dedup and cooldown
count for it.

That the parity configuration is bit-identical to a direct
``network.probe`` is pinned by
``tests/transport/test_dispatcher.py::test_parity_collect_matches_probe``.

Results land in ``BENCH_transport.json`` (or ``--output``).
``--quick`` shrinks the workload for CI smoke runs; ``--check``
additionally asserts the acceptance thresholds (strictly fewer total
probes and lower end-to-end simulated seconds at >=64 concurrent
viewports).

Run with ``PYTHONPATH=src python -m repro.bench.transport``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.bench.report import run_stamp
from repro.geometry import GeoPoint, Rect
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

# One retry recovers most transient failures without letting wire
# attempts on truly-dead sensors balloon past what dedup+cooldown save.
BENCH_TRANSPORT = TransportConfig(
    max_retries=1,
    backoff_base=0.5,
    inflight_ttl=STALENESS,
    cooldown_seconds=600.0,
    cooldown_threshold=0.5,
    overlap_enabled=True,
)


def make_portal(
    n_sensors: int,
    seed: int,
    transport: TransportConfig | None,
    flaky_fraction: float = FLAKY_FRACTION,
) -> SensorMapPortal:
    rng = np.random.default_rng(seed)
    portal = SensorMapPortal(
        max_sensors_per_query=None,
        transport=transport,
        network_options=dict(NETWORK_OPTIONS),
    )
    xs = rng.uniform(0.0, EXTENT, n_sensors)
    ys = rng.uniform(0.0, EXTENT, n_sensors)
    expiries = rng.uniform(120.0, 600.0, n_sensors)
    flaky = rng.random(n_sensors) < flaky_fraction
    for i in range(n_sensors):
        portal.register_sensor(
            GeoPoint(float(xs[i]), float(ys[i])),
            expiry_seconds=float(expiries[i]),
            sensor_type=SENSOR_TYPES[i % len(SENSOR_TYPES)],
            availability=FLAKY_AVAILABILITY if flaky[i] else RELIABLE_AVAILABILITY,
        )
    portal.rebuild_index()
    return portal


def make_viewports(level: int, seed: int) -> list[SensorQuery]:
    """``level`` concurrent viewports drawn round-robin from a hotspot
    pool (same shape as ``bench.batch``).  No ``sensor_type`` filter:
    each tick probes every tree, so the dispatcher has one round per
    tree to overlap on the shared connection pool."""
    pool_size = max(1, level // 4)
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(pool_size):
        cx = float(rng.uniform(15.0, EXTENT - 15.0))
        cy = float(rng.uniform(15.0, EXTENT - 15.0))
        half = float(rng.uniform(1.5, 3.0))
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


def _modeled_tick_seconds(portal: SensorMapPortal, batch) -> float:
    """End-to-end simulated seconds of one batch tick.

    Per-query processing already includes per-query-metered maintenance;
    streamed ingestion meters its maintenance on ``BatchStats`` instead,
    so it is charged here at the same per-op rate — neither arm gets
    free cache maintenance."""
    return (
        sum(r.processing_seconds for r in batch.results)
        + batch.stats.collection_seconds
        + batch.stats.maintenance_ops * portal.cost_model.per_maintenance_op
    )


def run_level(
    n_sensors: int, level: int, ticks: int, seed: int
) -> dict:
    sync_portal = make_portal(n_sensors, seed, transport=None)
    transport_portal = make_portal(n_sensors, seed, transport=BENCH_TRANSPORT)
    queries = make_viewports(level, seed + level)

    def drive(portal: SensorMapPortal) -> dict:
        modeled = 0.0
        wall = time.perf_counter()
        for _ in range(ticks):
            batch = portal.execute_batch(queries)
            modeled += _modeled_tick_seconds(portal, batch)
            portal.clock.advance(TICK_SECONDS)
        wall = time.perf_counter() - wall
        net = portal.network.stats
        t = portal.dispatcher.stats
        return {
            "modeled_seconds": modeled,
            "wall_seconds": wall,
            "probes_attempted": net.probes_attempted,
            "probes_succeeded": net.probes_succeeded,
            "probes_unavailable": net.probes_unavailable,
            "probes_timed_out": net.probes_timed_out,
            "transport": {
                "rounds": t.rounds,
                "retries": t.retries,
                "dedup_hits": t.dedup_hits,
                "cooldown_skips": t.cooldown_skips,
                "overlapped_rounds": t.overlapped_rounds,
                "streamed_readings": t.streamed_readings,
            },
        }

    sync = drive(sync_portal)
    transport = drive(transport_portal)
    return {
        "concurrency": level,
        "distinct_viewports": len({q.region for q in queries}),
        "ticks": ticks,
        "sync": sync,
        "transport": transport,
        "probe_ratio": sync["probes_attempted"]
        / max(1, transport["probes_attempted"]),
        "latency_ratio": sync["modeled_seconds"]
        / max(1e-12, transport["modeled_seconds"]),
    }


def run_transport_bench(
    n_sensors: int = 40_000,
    levels: Sequence[int] = (1, 8, 64, 256),
    ticks: int = 8,
    seed: int = 0,
    quick: bool = False,
) -> dict:
    if quick:
        n_sensors, levels, ticks = 2_500, (1, 8, 64), 8
    bench_start = time.perf_counter()
    per_level = [run_level(n_sensors, level, ticks, seed) for level in levels]
    return {
        "benchmark": "transport_dispatcher",
        **run_stamp(),
        "workload": {
            "n_sensors": n_sensors,
            "levels": list(levels),
            "ticks": ticks,
            "tick_seconds": TICK_SECONDS,
            "seed": seed,
            "quick": quick,
            "staleness_seconds": STALENESS,
            "sensor_types": list(SENSOR_TYPES),
            "flaky_fraction": FLAKY_FRACTION,
            "availabilities": {
                "reliable": RELIABLE_AVAILABILITY,
                "flaky": FLAKY_AVAILABILITY,
            },
            "network": dict(NETWORK_OPTIONS),
            "transport_config": {
                "max_retries": BENCH_TRANSPORT.max_retries,
                "backoff_base": BENCH_TRANSPORT.backoff_base,
                "inflight_ttl": BENCH_TRANSPORT.inflight_ttl,
                "cooldown_seconds": BENCH_TRANSPORT.cooldown_seconds,
                "cooldown_threshold": BENCH_TRANSPORT.cooldown_threshold,
                "overlap_enabled": BENCH_TRANSPORT.overlap_enabled,
            },
        },
        "wall_seconds": time.perf_counter() - bench_start,
        "levels": per_level,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sensors", type=int, default=40_000)
    parser.add_argument("--ticks", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the acceptance thresholds (fewer probes and lower "
        "modeled latency at >=64 concurrent viewports)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_transport.json"),
        help="where to write the JSON result",
    )
    args = parser.parse_args(argv)
    result = run_transport_bench(
        n_sensors=args.sensors, ticks=args.ticks, seed=args.seed, quick=args.quick
    )
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    for row in result["levels"]:
        t = row["transport"]["transport"]
        print(
            f"  {row['concurrency']:>4} viewports "
            f"({row['distinct_viewports']:>2} distinct, {row['ticks']} ticks): "
            f"probes {row['sync']['probes_attempted']} -> "
            f"{row['transport']['probes_attempted']} "
            f"({row['probe_ratio']:.2f}x), latency "
            f"{row['sync']['modeled_seconds']:.2f}s -> "
            f"{row['transport']['modeled_seconds']:.2f}s "
            f"({row['latency_ratio']:.2f}x) "
            f"[dedup {t['dedup_hits']}, cooldown "
            f"{t['cooldown_skips']}, retries {t['retries']}]"
        )
    print(f"transport bench -> {args.output}")
    if args.check:
        checked = [r for r in result["levels"] if r["concurrency"] >= 64]
        if not checked:
            print("FAIL: no level with >=64 concurrent viewports")
            return 1
        for row in checked:
            if (
                row["transport"]["probes_attempted"]
                >= row["sync"]["probes_attempted"]
            ):
                print(
                    f"FAIL: {row['concurrency']} concurrent probes not reduced "
                    f"({row['transport']['probes_attempted']} >= "
                    f"{row['sync']['probes_attempted']})"
                )
                return 1
            if (
                row["transport"]["modeled_seconds"]
                >= row["sync"]["modeled_seconds"]
            ):
                print(
                    f"FAIL: {row['concurrency']} concurrent latency not reduced "
                    f"({row['transport']['modeled_seconds']:.2f} >= "
                    f"{row['sync']['modeled_seconds']:.2f})"
                )
                return 1
        print("acceptance thresholds met")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
