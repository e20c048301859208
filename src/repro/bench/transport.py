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

Gates: strictly fewer total probes and lower end-to-end modeled
seconds at every level of 64+ concurrent viewports.

Run with ``PYTHONPATH=src python -m repro.bench transport``.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.fleets import (
    NETWORK_OPTIONS,
    SENSOR_TYPES,
    STALENESS,
    TICK_SECONDS,
    flaky_mix,
    hotspot_viewports,
    uncapped_portal,
    uniform_fleet,
)
from repro.bench.report import WallTimer
from repro.bench.runner import Bench
from repro.portal import SensorMapPortal
from repro.transport import TransportConfig

# No ``sensor_type`` filter on the viewports: each tick probes every
# tree, so the dispatcher has one round per tree to overlap on the
# shared connection pool.
VIEWPORT_HALF_RANGE = (1.5, 3.0)

# One retry recovers most transient failures without letting wire
# attempts on truly-dead sensors balloon past what dedup+cooldown save.
BENCH_TRANSPORT = TransportConfig(
    max_retries=1,
    inflight_ttl=STALENESS,
    cooldown_seconds=600.0,
    overlap_enabled=True,
)


def make_portal(
    n_sensors: int, seed: int, transport: TransportConfig | None
) -> SensorMapPortal:
    return uncapped_portal(
        uniform_fleet(n_sensors, seed, types=SENSOR_TYPES, availability=flaky_mix()),
        transport=transport,
        network_options=dict(NETWORK_OPTIONS),
    )


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
    queries = hotspot_viewports(level, seed + level, VIEWPORT_HALF_RANGE)

    def drive(portal: SensorMapPortal) -> dict:
        modeled = 0.0
        with WallTimer() as timer:
            for _ in range(ticks):
                batch = portal.execute_batch(queries)
                modeled += _modeled_tick_seconds(portal, batch)
                portal.clock.advance(TICK_SECONDS)
        net = portal.network.stats
        t = portal.dispatcher.stats
        return {
            "modeled_seconds": modeled,
            "wall_seconds": timer.seconds,
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
        "modeled_latency_ratio": sync["modeled_seconds"]
        / max(1e-12, transport["modeled_seconds"]),
    }


def run(n_sensors: int, levels: Sequence[int], ticks: int, seed: int) -> dict:
    phases = {
        f"level_{level}": run_level(n_sensors, level, ticks, seed) for level in levels
    }
    gated = [row for row in phases.values() if row["concurrency"] >= 64]
    return {
        "phases": phases,
        "checks": {
            "has_level_with_64_concurrent": bool(gated),
            "fewer_probes_at_64_concurrent": all(
                row["transport"]["probes_attempted"] < row["sync"]["probes_attempted"]
                for row in gated
            ),
            "lower_modeled_seconds_at_64_concurrent": all(
                row["transport"]["modeled_seconds"] < row["sync"]["modeled_seconds"]
                for row in gated
            ),
        },
    }


BENCH = Bench(
    name="transport",
    full={"n_sensors": 40_000, "levels": (1, 8, 64, 256), "ticks": 8, "seed": 0},
    quick={"n_sensors": 2_500, "levels": (1, 8, 64), "ticks": 8, "seed": 0},
    run=run,
)
