"""Parallel federation benchmark: real wall-clock scaling over workers.

Every other benchmark in this repo reports *modeled* seconds on a
shared ``SimClock`` — no query has ever finished faster on real
hardware because of sharding.  This one drives the same 40k-sensor
fleet and multi-tick batch workload as ``bench.federation`` through the
**process execution backend** (``FederationConfig.execution="process"``,
one worker process per shard) at 1 / 2 / 4 / 8 workers, and times the
host clock.  The in-process coordinator runs the identical workload at
each shard count as the baseline column, so the table shows exactly
what true parallelism buys over simulated concurrency.

One correctness gate runs before any timing (the benchmark refuses to
time a backend that changes answers): **process-backend bit-identity** —
a process-mode federation and an in-process federation built from the
same fleet and seeds run the same query matrix (exact / sampled x rect /
polygon, cold and warm, sequential and batch) and every per-answer
field, timing and batch stat must match exactly.

The worker sweep is capped at the host's core count (never below two
workers), and the wall-clock speedup gates are **core-count aware**: the
>=2x gate at 4 workers needs >=4 CPUs and the monotonic-to-8 gate needs
>=8; on smaller hosts they are recorded as skipped (``None`` — a fork
worker cannot beat the in-process loop without a core to run on), while
the correctness gate above is enforced unconditionally.

Run with ``PYTHONPATH=src python -m repro.bench parallel``.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Sequence

from repro.bench.federation import (
    BENCH_FEDERATION,
    VIEWPORT_HALF_RANGE,
    assert_matrix_identical,
    drive_ticks,
    make_federation,
)
from repro.bench.fleets import hotspot_viewports
from repro.bench.runner import Bench

# The bench federation config with the process backend switched on;
# everything else (retry budget, backoff) identical to the in-process
# rows so the comparison isolates the execution backend.
PROCESS_FEDERATION = replace(BENCH_FEDERATION, execution="process")


# ----------------------------------------------------------------------
# Gate
# ----------------------------------------------------------------------
def check_process_parity(n_sensors: int, seed: int, n_shards: int = 2) -> int:
    """Gate: the process backend must be answer-bit-identical to the
    in-process coordinator on the same fleet and seeds — per-answer
    fields, modeled timings, batch stats and federation counters — cold
    and warm.  Returns the number of (phase, query) cells compared."""
    inproc = make_federation(n_sensors, seed, n_shards)
    proc = make_federation(
        n_sensors, seed, n_shards, federation=PROCESS_FEDERATION
    )
    try:
        cells = assert_matrix_identical("process", inproc, proc)
        fa = inproc.stats_summary()["federation"]
        fb = proc.stats_summary()["federation"]
        if fa != fb:
            raise AssertionError("parity[process]: federation counters diverged")
    finally:
        proc.close()
    return cells


# ----------------------------------------------------------------------
# Throughput
# ----------------------------------------------------------------------
def run_worker_count(
    n_sensors: int, n_workers: int, level: int, ticks: int, seed: int
) -> dict:
    """One sweep row: the identical workload through the in-process
    coordinator and the process backend at ``n_workers`` shards."""
    queries = hotspot_viewports(level, seed + level, VIEWPORT_HALF_RANGE)
    n_queries = ticks * level

    inproc = make_federation(n_sensors, seed, n_workers)
    baseline = drive_ticks(inproc, queries, ticks)

    proc = make_federation(
        n_sensors, seed, n_workers, federation=PROCESS_FEDERATION
    )
    try:
        worker_pids = [proc.worker_pid(i) for i in range(n_workers)]
        process = drive_ticks(proc, queries, ticks)
        # What the drive moved over the op pipe: a frame-size number
        # that, unlike the wall columns, repeats exactly for a seed.
        reply_bytes = proc._backend.reply_bytes
    finally:
        proc.close()

    return {
        "workers": n_workers,
        "queries": n_queries,
        "worker_pids_distinct": len(set(worker_pids)),
        "inprocess": baseline,
        "process": process,
        "reply_bytes": reply_bytes,
        "reply_bytes_per_query": reply_bytes / n_queries,
        "wall_throughput_qps": {
            "inprocess": n_queries / max(1e-12, baseline["wall_seconds"]),
            "process": n_queries / max(1e-12, process["wall_seconds"]),
        },
        "wall_speedup_process_vs_inprocess": baseline["wall_seconds"]
        / max(1e-12, process["wall_seconds"]),
    }


def run(
    n_sensors: int, worker_counts: Sequence[int], level: int, ticks: int, seed: int
) -> dict:
    cores = os.cpu_count() or 1
    worker_counts = [n for n in worker_counts if n <= max(2, cores)]
    gate_sensors = min(n_sensors, 4_000)

    process_cells = check_process_parity(gate_sensors, seed)

    rows = {
        n: run_worker_count(n_sensors, n, level, ticks, seed) for n in worker_counts
    }
    base = rows[worker_counts[0]]["process"]["wall_seconds"]
    for row in rows.values():
        row["wall_speedup_vs_1_worker"] = base / max(
            1e-12, row["process"]["wall_seconds"]
        )
    curve = [row["wall_speedup_vs_1_worker"] for row in rows.values()]
    speedup_at_4 = monotonic_to_8 = None  # skipped without the cores
    if cores >= 4 and 4 in rows:
        speedup_at_4 = rows[4]["wall_speedup_vs_1_worker"] >= 2.0
    if cores >= 8 and 8 in rows:
        monotonic_to_8 = all(a <= b for a, b in zip(curve, curve[1:]))
    return {
        "phases": {
            "parity": {"process_cells": process_cells},
            **{f"workers_{n}": row for n, row in rows.items()},
        },
        "checks": {
            # The parity gate raises: reaching this line is the pass.
            "process_backend_bit_identical": process_cells > 0,
            "wall_speedup_ge_2x_at_4_workers": speedup_at_4,
            "wall_speedup_monotonic_to_8_workers": monotonic_to_8,
        },
    }


BENCH = Bench(
    name="parallel",
    full={
        "n_sensors": 40_000,
        "worker_counts": (1, 2, 4, 8),
        "level": 64,
        "ticks": 4,
        "seed": 0,
    },
    quick={
        "n_sensors": 2_500,
        "worker_counts": (1, 2),
        "level": 16,
        "ticks": 2,
        "seed": 0,
    },
    run=run,
)
