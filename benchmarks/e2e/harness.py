"""Replay a workload segment through the whole stack and reduce the
results to the benchmark's metrics.

Two halves:

* :func:`run_segment` runs inside a fresh child process: generate the
  inputs, build the stack (timed: ``setup_s``), replay every operation
  closed-loop at its *simulated* arrival time with ``perf_counter``
  around the one call, check every output outside the timer, and return
  latencies plus the public counters.
* :func:`reduce_run` runs in the parent: host-speed normalisation,
  per-operation best-of-reps over identical replays, pooling across
  segments, percentiles with their sample counts, and the determinism
  assertion (every count and modeled value equal across reps).

**Host-speed normalisation.**  The sandbox's cores are shared: the same
code runs 1.3x to 2x slower for seconds or minutes at a time when a
neighbour is busy, CPU time swells exactly as wall time does, and
best-of-three replays of one seed still differed by 12 % because all
three fell into one slow phase.  So the replay interleaves a fixed
pure-Python kernel (:func:`host_probe`) with the operations, about one
per millisecond of measured work, and every wall time is divided by
the *slowdown* of the probes taken around it: their mean cost over
``HOST_REFERENCE_S``, what the kernel costs on this sandbox at full
speed.  The reference is a constant, not the run's own cheapest probe:
a run that spends all its seconds in a slow phase never sees the host's
full speed, and would under-correct itself by the 1.28x it missed.
Replays of one seed then agree within 2-5 %.  The kernel is defined
here and touches nothing under ``src/``, so no change to the program
can speed it up.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.federation import FederatedPortal, FederationConfig, make_partitioner
from repro.frontdoor import FrontDoor, FrontDoorConfig
from repro.storage import StorageConfig
from repro.transport import TransportConfig

from workloads import Workload

# One segment is sized to measure for about this long on the seed
# commit (at the host's full speed); ``--seconds`` picks how many
# segments a run replays.
SEGMENT_SECONDS = 1.8
MAX_SEGMENTS = 10
MIN_SAMPLES_BEYOND = 10

# Host-speed probe: one per HOST_PROBE_EVERY_S of measured work, at
# most HOST_PROBE_BURST after one long operation (~5 % of the run).  An
# operation's slowdown is taken from the probes within HOST_WINDOW_S of
# it, set-up's from HOST_EDGE_PROBES on each side of it.
HOST_PROBE_LOOPS = 500
HOST_PROBE_EVERY_S = 1e-3
HOST_PROBE_BURST = 8
HOST_WINDOW_S = 0.128
HOST_EDGE_PROBES = 64
# The kernel's cost on this sandbox at full speed: the fifth-cheapest
# probe of a run read 35.0-35.7 us over 200 runs whenever the run saw a
# quiet moment at all.  On another machine the normalised metrics are
# "at a host where the kernel costs this much"; runs on one machine
# stay comparable with each other, which is what a regression check
# needs.
HOST_REFERENCE_S = 35.2e-6

GEOBLOCK_FIELDS = ("grid_cells_served", "interior_cells", "boundary_cells")
SHARD_COUNTERS = {
    "network": ("probes_attempted", "probes_succeeded"),
    "transport": ("rounds", "attempts", "retries", "dedup_hits", "cooldown_skips"),
    "storage": ("wal_appends", "wal_fsyncs", "page_writes", "checkpoints", "recoveries"),
}


class DeterminismError(AssertionError):
    """Two replays of the same seed disagreed on a count or a modeled
    value — the replay is not the closed deterministic loop it claims."""


def segments_for(seconds: float) -> int:
    return max(1, min(MAX_SEGMENTS, round(seconds / SEGMENT_SECONDS)))


def segment_seed(seed: int, segment: int) -> int:
    """Sub-seed of one segment: spaced so the generators' own
    ``seed + k`` sub-streams never collide across segments or seeds."""
    return seed * 10 * MAX_SEGMENTS + segment * 10


# ----------------------------------------------------------------------
# The stack under test
# ----------------------------------------------------------------------
@dataclass
class Stack:
    fed: FederatedPortal
    door: FrontDoor


def build_stack(workload: Workload, sensors: list, seed: int, data_dir: Path) -> Stack:
    """The one stack every workload drives; only the shard count and
    the execution backend vary.  Default fsync policy (on, batch 32)."""
    fed = FederatedPortal(
        partitioner=make_partitioner("grid", workload.n_shards, seed=seed),
        transport=TransportConfig(),
        storage=StorageConfig(data_dir),
        max_sensors_per_query=None,
        network_seed=seed,
        federation=FederationConfig(execution=workload.execution),
    )
    fed.register_all(sensors)
    fed.rebuild_index()
    return Stack(fed, FrontDoor(fed, FrontDoorConfig()))


def shard_totals(fed: FederatedPortal) -> dict[str, int]:
    """Sum the per-shard public counters (works on both backends: the
    process backend answers ``stats`` over the op pipe)."""
    totals = {
        f"{group}.{name}": 0 for group, names in SHARD_COUNTERS.items() for name in names
    }
    for shard in fed.stats_summary()["shards"].values():
        for group, names in SHARD_COUNTERS.items():
            for name in names:
                totals[f"{group}.{name}"] += int(shard.get(group, {}).get(name, 0))
    return totals


def _probe_kernel(loops: int) -> None:
    d: dict[int, float] = {}
    for i in range(loops):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5


def host_probe() -> float:
    """Seconds the fixed kernel takes right now.  A short untimed pass
    first brings it back into the caches the last operation evicted, so
    the reading is the core's speed, not the operation's footprint."""
    _probe_kernel(HOST_PROBE_LOOPS // 2)
    t0 = time.perf_counter()
    _probe_kernel(HOST_PROBE_LOOPS)
    return time.perf_counter() - t0


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ----------------------------------------------------------------------
# Output checks (outside the timers; a violation is a failed operation)
# ----------------------------------------------------------------------
def check_read(response, now: float, locations: dict) -> str | None:
    """Why this front-door response is wrong, or ``None``.  ``locations``
    maps every sensor id that was ever in the fleet to its position (a
    cached reading can outlive its sensor's withdrawal)."""
    if not response.served:
        return f"shed ({response.status})"
    result = response.result
    if getattr(result, "partial", False):
        return "partial answer"
    region = response.query.region  # the quantized region actually served
    oldest = now - response.query.staleness_seconds
    contains = region.contains_point
    seen: set[int] = set()
    for answer in result.answers:
        for readings in (answer.probed_readings, answer.cached_readings):
            for reading in readings:
                sensor_id = reading.sensor_id
                if sensor_id in seen:
                    return f"sensor {sensor_id} returned twice"
                seen.add(sensor_id)
                if reading.timestamp < oldest:
                    return f"sensor {sensor_id} reading older than the staleness bound"
                if not contains(locations[sensor_id]):
                    return f"sensor {sensor_id} outside the query region"
    return None


def count_read(counts: dict, tag: str, response) -> None:
    """Which tier served a read, and — for a direct polygon execution,
    whose shard results carry it — the geoblock planner's accounting."""
    if not response.served:
        return
    tier = response.served_from
    counts[f"served.{tier}"] += 1
    if tag:
        counts[f"tier.{tag}.{tier}"] = counts.get(f"tier.{tag}.{tier}", 0) + 1
    if tier == "l2":
        counts["frontdoor.l2_tiles"] += response.tiles_composed
    elif tier == "portal":
        for shard_result in getattr(response.result, "shard_results", {}).values():
            for name in GEOBLOCK_FIELDS:
                counts[f"geoblocks.{name}"] += getattr(shard_result, name, 0)


# ----------------------------------------------------------------------
# One segment (child process)
# ----------------------------------------------------------------------
def run_segment(
    workload: Workload,
    seed: int,
    segment: int,
    scale: float,
    data_dir: Path,
    tracer=None,
) -> dict:
    sub_seed = segment_seed(seed, segment)
    t0 = time.perf_counter()
    inputs = workload.make(sub_seed, scale)
    gen_s = time.perf_counter() - t0

    host_setup = [host_probe() for _ in range(HOST_EDGE_PROBES)]
    t0 = time.perf_counter()
    stack = build_stack(workload, inputs.sensors, sub_seed, data_dir)
    setup_s = time.perf_counter() - t0
    host_setup += [host_probe() for _ in range(HOST_EDGE_PROBES)]
    fed, door = stack.fed, stack.door
    try:
        # Set-up garbage must not be collected on a request's time.
        gc.collect()
        gc.freeze()

        latency: list[float] = []
        started: list[float] = []
        host_at: list[float] = []
        host_cost: list[float] = []

        def probe_host(times: int) -> None:
            for _ in range(times):
                host_at.append(time.perf_counter())
                host_cost.append(host_probe())

        probe_host(HOST_EDGE_PROBES)
        unprobed = 0.0
        modeled: list[float] = []
        failures: list[list] = []
        counts = dict.fromkeys(
            ("reads", "writes", "served.l1", "served.l2", "served.portal", "frontdoor.l2_tiles")
            + tuple(f"geoblocks.{name}" for name in GEOBLOCK_FIELDS),
            0,
        )
        locations = {s.sensor_id: s.location for s in inputs.sensors}
        # Restaging a shard (absorb, rebalance, revive) replaces its
        # portal and zeroes its counters, so shard counters are summed
        # over the epochs between writes; work inside a write call is
        # not in them.
        baseline = shard_totals(fed)
        shard_counts = dict.fromkeys(baseline, 0)

        def close_epoch() -> None:
            for key, value in shard_totals(fed).items():
                shard_counts[key] += value - baseline[key]

        clock = fed.clock
        start = clock.now()
        for index, op in enumerate(inputs.ops(stack)):
            if op.kind != "read":
                close_epoch()
            clock.advance_to(max(clock.now(), start + op.at))
            if tracer is not None:
                tracer.request = index
            error = None
            t0 = time.perf_counter()
            try:
                out = op.call(stack)
            except Exception as exc:  # a failed operation, never a crashed run
                out, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - t0
            started.append(t0)
            latency.append(took)
            unprobed += took
            if unprobed >= HOST_PROBE_EVERY_S:
                probe_host(min(HOST_PROBE_BURST, int(unprobed / HOST_PROBE_EVERY_S)))
                unprobed = 0.0
            if tracer is not None:
                tracer.request = -1
            if op.kind == "read":
                counts["reads"] += 1
                if error is None:
                    error = check_read(out, clock.now(), locations)
                    modeled.append(out.service_seconds)
                    count_read(counts, op.tag, out)
            else:
                counts["writes"] += 1
                baseline = shard_totals(fed)
                for sensor in fed.registry:  # joins
                    locations.setdefault(sensor.sensor_id, sensor.location)
            if error is not None:
                failures.append([index, op.kind, error])
            elif op.after is not None:
                op.after(stack, out, counts)
        close_epoch()

        cache = door.cache.stats
        f = fed.stats
        counts.update(shard_counts)
        counts.update(
            {
                "frontdoor.lookups": cache.lookups,
                "frontdoor.l1_hits": cache.l1_hits,
                "frontdoor.l2_hits": cache.l2_hits,
                "frontdoor.invalidations_write": cache.invalidated_write,
                "frontdoor.invalidations_slot": cache.invalidated_slot,
                "frontdoor.invalidations_stale": cache.invalidated_stale,
                "frontdoor.shed": door.admission.stats.shed_rate
                + door.admission.stats.shed_queue,
                "federation.subqueries": f.subqueries_scattered,
                "federation.topup_rounds": f.redistribution_rounds_run,
                "federation.topup_gain": f.topup_sensors_gained,
                "federation.partial": f.partial_answers,
            }
        )
        counts["parallel.live_workers"] = (
            sum(fed.worker_pid(i) is not None for i in range(fed.n_shards))
            if workload.execution == "process"
            else 0
        )
        counts["fleet.directory_weight"] = fed.directory.total_weight()
        counts["fleet.size"] = len(fed.registry)
        counts["segments"] = 1
        stored_bytes = dir_bytes(data_dir)
    finally:
        gc.unfreeze()
        fed.close()
    # Workers are reaped by close(); their CPU and RSS land in CHILDREN.
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "latency_s": latency,
        "started_s": started,
        "host_at_s": host_at,
        "host_cost_s": host_cost,
        "host_setup_s": host_setup,
        "modeled_s": modeled,
        "failures": failures,
        "counts": counts,
        "setup_s": setup_s,
        "gen_s": gen_s,
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024.0,
        "worker_cpu_s": kids.ru_utime + kids.ru_stime,
        "dir_bytes": stored_bytes,
        "layers": tracer.layer_totals() if tracer is not None else None,
    }


# ----------------------------------------------------------------------
# Reduction (parent process)
# ----------------------------------------------------------------------
def percentile(values, p: float) -> tuple[float, int]:
    """The ``p``-th percentile with the number of samples beyond it;
    it is a reportable tail only with ``MIN_SAMPLES_BEYOND`` of them."""
    beyond = int(len(values) * (100.0 - p) / 100.0)
    return float(np.percentile(values, p)), beyond


def best_of_reps(reps: list[list[float]]) -> list[float]:
    """Per-operation minimum over identical replays."""
    if len({len(r) for r in reps}) != 1:
        raise DeterminismError(
            f"reps replayed different operation counts: {[len(r) for r in reps]}"
        )
    return [min(samples) for samples in zip(*reps)]


def assert_deterministic(reps: list[dict]) -> None:
    """Every count and modeled value must be equal across reps."""
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=1):
        for key in sorted(set(first["counts"]) | set(rep["counts"])):
            a, b = first["counts"].get(key), rep["counts"].get(key)
            if a != b:
                raise DeterminismError(f"count {key}: rep 0 saw {a}, rep {i} saw {b}")
        if first["modeled_s"] != rep["modeled_s"]:
            raise DeterminismError(f"modeled seconds differ between rep 0 and rep {i}")


def pool_counts(results: list[dict]) -> dict[str, float]:
    """Sum the counters of several segment results."""
    pooled: dict[str, float] = {}
    for result in results:
        for key, value in result["counts"].items():
            pooled[key] = pooled.get(key, 0) + value
    return pooled


def op_slowdowns(result: dict) -> np.ndarray:
    """How much slower than the reference the host ran around each
    operation: the mean cost of the probes taken from ``HOST_WINDOW_S``
    before its start to ``HOST_WINDOW_S`` after its end (the nearest
    probe when that window holds none), over ``HOST_REFERENCE_S``.
    All ones when the result carries no probes."""
    at = np.asarray(result.get("host_at_s", ()), dtype=float)
    if at.size == 0:
        return np.ones(len(result["latency_s"]))
    cost = np.asarray(result["host_cost_s"], dtype=float)
    running = np.concatenate(([0.0], np.cumsum(cost)))
    start = np.asarray(result["started_s"], dtype=float)
    end = start + np.asarray(result["latency_s"], dtype=float)
    lo = np.searchsorted(at, start - HOST_WINDOW_S, "left")
    hi = np.searchsorted(at, end + HOST_WINDOW_S, "right")
    nearest = np.clip(np.searchsorted(at, start), 0, at.size - 1)
    mean = np.where(hi > lo, (running[hi] - running[lo]) / np.maximum(hi - lo, 1), cost[nearest])
    return mean / HOST_REFERENCE_S


def normalised(result: dict) -> tuple[list[float], float]:
    """One replay's latencies and set-up time at the host's full speed."""
    latency = np.asarray(result["latency_s"], dtype=float) / op_slowdowns(result)
    around_setup = result.get("host_setup_s", ())
    slowdown = statistics.fmean(around_setup) / HOST_REFERENCE_S if around_setup else 1.0
    return latency.tolist(), result["setup_s"] / slowdown


def wall_metrics(latency: list[float], setups: list[float]) -> dict[str, float]:
    ops = len(latency)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(latency, 50.0)[0] * 1e3,
        "latency_p95_ms": percentile(latency, 95.0)[0] * 1e3,
        "latency_p99_ms": percentile(latency, 99.0)[0] * 1e3,
        "throughput_qps": ops / sum(latency),
    }


def reduce_run(segments: list[list[dict]], shape, full_scale: bool = True) -> dict:
    """``segments[k]`` is the list of reps of segment ``k``; ``shape``
    is the workload's self-check over the pooled counts.  Returns the
    end-to-end metrics plus the bookkeeping the driver line needs.  A
    ``--quick`` stream is too short to have the shape, or a p99 with ten
    samples beyond it, so both checks apply at full scale only."""
    every = [r for reps in segments for r in reps]
    latency: list[float] = []
    raw_latency: list[float] = []
    modeled: list[float] = []
    failures: list = []
    # [segment][rep] -> (latencies, set-up) at the host's full speed
    full_speed = [[normalised(r) for r in reps] for reps in segments]
    for k, reps in enumerate(segments):
        assert_deterministic(reps)
        latency.extend(best_of_reps([lat for lat, _ in full_speed[k]]))
        raw_latency.extend(best_of_reps([r["latency_s"] for r in reps]))
        modeled.extend(reps[0]["modeled_s"])
        failures.extend([k, *f] for f in reps[0]["failures"])
    counts = pool_counts([reps[0] for reps in segments])
    ops = len(latency)
    metrics = wall_metrics(latency, [setup for reps in full_speed for _, setup in reps])
    raw = wall_metrics(raw_latency, [r["setup_s"] for r in every])
    metrics.update({f"raw_{name}": value for name, value in raw.items()})
    metrics.update(
        {
            "host_slowdown": sum(raw_latency) / sum(latency),
            "probes_per_query": counts["network.probes_attempted"] / ops,
            "modeled_mean_ms": statistics.fmean(modeled) * 1e3,
            "modeled_p50_ms": percentile(modeled, 50.0)[0] * 1e3,
            "modeled_p99_ms": percentile(modeled, 99.0)[0] * 1e3,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in every),
        }
    )
    # What each rep reads on its own: its spread is how far apart two
    # measurements of the same replay can land on this machine.
    n_reps = len(segments[0])
    per_rep = [
        wall_metrics(
            [x for reps in full_speed for x in reps[i][0]],
            [reps[i][1] for reps in full_speed],
        )
        for i in range(n_reps)
    ]
    rep_spread = {
        name: (max(m[name] for m in per_rep) - min(m[name] for m in per_rep))
        / statistics.median(m[name] for m in per_rep)
        for name in per_rep[0]
    }
    beyond = {f"p{p}": percentile(latency, p)[1] for p in (50, 95, 99)}
    shape_errors = list(shape(counts)) if full_scale else []
    if full_scale and beyond["p99"] < MIN_SAMPLES_BEYOND:
        shape_errors.append(
            f"p99 of {ops} operations has {beyond['p99']} samples beyond it, "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return {
        "metrics": metrics,
        "rep_spread": rep_spread,
        "samples_beyond": beyond,
        "operations": ops,
        "failed": len(failures),
        "failures": failures[:20],
        "shape_errors": shape_errors,
        "counts": counts,
        "gen_s": statistics.median(r["gen_s"] for r in every),
        "worker_cpu_s": sum(reps[0]["worker_cpu_s"] for reps in segments),
    }
