"""Batch executor benchmark: coalesced ticks vs sequential execution.

Drives the same concurrent-viewport workload through two portals:

``sequential``
    ``portal.execute(q)`` per query, in arrival order — every query
    pays its own probe round trip and its own cache maintenance.
``batch``
    One ``portal.execute_batch(queries)`` tick — shared traversal
    plans, each sensor contacted at most once, one grouped ingestion
    pass, one probe round trip per tree.

Workloads model a portal under load: N concurrent map viewports drawn
from a small pool of hotspots (many users staring at the same few
places), at 1/8/64/256 concurrent queries over >=40k sensors.

Throughput is measured in the repo's end-to-end cost convention (see
``repro.portal.PortalResult.end_to_end_seconds``): modeled processing
seconds plus simulated collection latency.  Sequential execution
serializes one collection round per query; a batch tick pays one shared
round per tree.  Host wall-clock per pass is reported as a secondary
series (it excludes the simulated network, so it only reflects index
and maintenance work).

Before timing, every level is executed under both modes at
availability 1.0 and the per-query answers compared (result weight
exactly, aggregate to float tolerance) — the benchmark refuses to
report a speedup for a batch path that changes answers.  Timing runs at
availability 0.85: failed probes are not cached, so sequential execution
re-contacts flaky sensors once per overlapping query while the batch
tick asks once — the probe-count series quantifies exactly that.

Gates: answer parity at every level; >=3x modeled throughput and
strictly fewer probes at every level of 64+ concurrent viewports.

Run with ``PYTHONPATH=src python -m repro.bench batch``.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.bench.fleets import hotspot_viewports, uncapped_portal, uniform_fleet
from repro.bench.runner import Bench
from repro.core.stats import QueryStats
from repro.portal import SensorMapPortal, SensorQuery

TIMING_AVAILABILITY = 0.85
# Zoomed-in tiles (a few dozen sensors each): the regime where
# sequential execution pays one collector round trip per query while a
# batch tick packs the union into a few.
VIEWPORT_HALF_RANGE = (1.0, 2.0)


def make_portal(n_sensors: int, availability: float, seed: int) -> SensorMapPortal:
    return uncapped_portal(uniform_fleet(n_sensors, seed, availability=availability))


def check_parity(
    n_sensors: int, levels: Sequence[int], seed: int
) -> None:
    """Every level's workload, once through each mode on fresh portals
    at availability 1.0: identical result weights, aggregates equal to
    float tolerance."""
    seq_portal = make_portal(n_sensors, availability=1.0, seed=seed)
    batch_portal = make_portal(n_sensors, availability=1.0, seed=seed)
    for level in levels:
        queries = hotspot_viewports(level, seed + level, VIEWPORT_HALF_RANGE)
        seq_results = [seq_portal.execute(q) for q in queries]
        batch = batch_portal.execute_batch(queries)
        for i, (s, b) in enumerate(zip(seq_results, batch.results)):
            if s.result_weight != b.result_weight:
                raise AssertionError(
                    f"parity: level {level} query {i} weight "
                    f"{s.result_weight} != {b.result_weight}"
                )
            if s.result_weight == 0:  # aggregate of nothing is undefined
                continue
            sa, ba = s.aggregate(), b.aggregate()
            if abs(sa - ba) > 1e-9 * max(1.0, abs(sa)):
                raise AssertionError(
                    f"parity: level {level} query {i} aggregate {sa} != {ba}"
                )
        seq_portal.tree("generic").clear_caches()
        batch_portal.tree("generic").clear_caches()


def _modeled_seconds_sequential(results) -> float:
    # Serial rounds: each query's processing plus its own collection.
    return sum(r.processing_seconds + r.collection_seconds for r in results)


def _modeled_seconds_batch(batch) -> float:
    # One shared collection round per tree (BatchStats.collection_seconds
    # already sums the per-tree rounds exactly once).
    return (
        sum(r.processing_seconds for r in batch.results)
        + batch.stats.collection_seconds
    )


def time_level(
    seq_portal: SensorMapPortal,
    batch_portal: SensorMapPortal,
    queries: Sequence[SensorQuery],
    reps: int,
) -> dict:
    seq_wall, seq_modeled, seq_probes = [], [], []
    bat_wall, bat_modeled, bat_probes = [], [], []
    last_batch = None
    for _ in range(reps):
        seq_portal.tree("generic").clear_caches()
        probes_before = seq_portal.network.stats.probes_attempted
        start = time.perf_counter()
        results = [seq_portal.execute(q) for q in queries]
        seq_wall.append(time.perf_counter() - start)
        seq_modeled.append(_modeled_seconds_sequential(results))
        seq_probes.append(
            seq_portal.network.stats.probes_attempted - probes_before
        )

        batch_portal.tree("generic").clear_caches()
        probes_before = batch_portal.network.stats.probes_attempted
        start = time.perf_counter()
        batch = batch_portal.execute_batch(queries)
        bat_wall.append(time.perf_counter() - start)
        bat_modeled.append(_modeled_seconds_batch(batch))
        bat_probes.append(
            batch_portal.network.stats.probes_attempted - probes_before
        )
        last_batch = batch

    # The last tick's totals: the sum of its answers' own stats.
    answers = [a for r in last_batch.results for a in r.answers]
    total = QueryStats()
    for answer in answers:
        total.merge(answer.stats)
    n = len(queries)
    seq_s, bat_s = min(seq_modeled), min(bat_modeled)
    seq_w, bat_w = min(seq_wall), min(bat_wall)
    return {
        "concurrency": n,
        "distinct_viewports": len({q.region for q in queries}),
        "modeled_seconds": {"sequential": seq_s, "batch": bat_s},
        "modeled_throughput_qps": {"sequential": n / seq_s, "batch": n / bat_s},
        "modeled_speedup": seq_s / bat_s,
        "wall_seconds": {"sequential": seq_w, "batch": bat_w},
        "wall_speedup": seq_w / bat_w,
        "probes": {
            "sequential": min(seq_probes),
            "batch": max(bat_probes),
        },
        "probe_ratio": min(seq_probes) / max(1, max(bat_probes)),
        "batch_stats": {
            "probes_requested": total.sensors_probed + total.probes_coalesced,
            "probes_issued": total.sensors_probed,
            "probes_coalesced": total.probes_coalesced,
            "batch_shared_plans": sum(1 for a in answers if a.stats.batch_shared_nodes),
        },
    }


def run(n_sensors: int, levels: Sequence[int], reps: int, seed: int) -> dict:
    check_parity(n_sensors, levels, seed)

    seq_portal = make_portal(n_sensors, TIMING_AVAILABILITY, seed)
    batch_portal = make_portal(n_sensors, TIMING_AVAILABILITY, seed)
    phases = {
        f"level_{level}": time_level(
            seq_portal,
            batch_portal,
            hotspot_viewports(level, seed + level, VIEWPORT_HALF_RANGE),
            reps,
        )
        for level in levels
    }
    gated = [row for row in phases.values() if row["concurrency"] >= 64]
    return {
        "phases": phases,
        "checks": {
            # check_parity raises: reaching this line is the pass.
            "answers_identical_at_every_level": True,
            "has_level_with_64_concurrent": bool(gated),
            "modeled_throughput_ge_3x_at_64_concurrent": all(
                row["modeled_speedup"] >= 3.0 for row in gated
            ),
            "fewer_probes_at_64_concurrent": all(
                row["probes"]["batch"] < row["probes"]["sequential"] for row in gated
            ),
        },
    }


BENCH = Bench(
    name="batch",
    full={"n_sensors": 40_000, "levels": (1, 8, 64, 256), "reps": 3, "seed": 0},
    quick={"n_sensors": 2_500, "levels": (1, 8, 64), "reps": 2, "seed": 0},
    run=run,
)
