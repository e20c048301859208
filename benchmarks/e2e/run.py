#!/usr/bin/env python3
"""End-to-end benchmark: six replayed workloads through the whole stack.

    python3 benchmarks/e2e/run.py --workload rect_miss --seed 1 --seconds 9 --trace 0
    python3 benchmarks/e2e/run.py --out benchmarks/e2e/out/full.json [--reps 3] [--trace 1]

With ``--workload`` it runs one workload and prints, as the last line
of standard output, one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Without ``--workload`` it
runs all six and writes a result file for ``compare.py``.

See README.md in this directory for the load model and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(REPO / "src")]

try:
    import numpy  # noqa: E402

    import harness  # noqa: E402
    import tracing  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402
except ModuleNotFoundError as exc:  # no src/ beside the benchmark: nothing to measure
    raise SystemExit(f"cannot import the stack under test: {exc}") from exc

QUICK_SCALE = 0.1


# ----------------------------------------------------------------------
# Child: one (workload, seed, segment) replay in a fresh process
# ----------------------------------------------------------------------
def child_main(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.execution:
        workload = replace(workload, execution=args.execution)
    tracer = tracing.install() if args.trace else None
    data_dir = Path(args.child) / "data"
    result = harness.run_segment(
        workload,
        args.seed,
        args.segment,
        QUICK_SCALE if args.quick else 1.0,
        data_dir,
        tracer,
    )
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-{args.segment}.json")
    with open(Path(args.child) / "result.json", "w") as f:
        json.dump(result, f)
    return 0


def spawn_segment(
    workload: str,
    seed: int,
    segment: int,
    quick: bool,
    trace: bool,
    execution: str | None = None,
) -> dict:
    """Run one segment in a fresh interpreter and read its result.
    ``execution`` overrides the workload's backend (tier-mix twin)."""
    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--child",
            str(work),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--segment",
            str(segment),
            "--trace",
            "1" if trace else "0",
        ]
        if quick:
            cmd.append("--quick")
        if execution:
            cmd += ["--execution", execution]
        subprocess.run(cmd, check=True, timeout=170)
        with open(work / "result.json") as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# Parent: orchestrate, reduce, report
# ----------------------------------------------------------------------
def measure(names: list[str], seed: int, segments: int, reps: int, quick: bool) -> dict:
    """Untraced reps, interleaved round-robin across workloads."""
    raw = {name: [[] for _ in range(segments)] for name in names}
    for _rep in range(reps):
        for segment in range(segments):
            for name in names:
                raw[name][segment].append(
                    spawn_segment(name, seed, segment, quick, trace=False)
                )
    return {
        name: harness.reduce_run(raw[name], WORKLOADS[name].shape, not quick)
        for name in names
    }


def per_layer(name: str, seed: int, segments: int, quick: bool) -> dict:
    """One traced pass plus an untraced replay of segment 0 for the
    tracing overhead.  Returns the per-layer metrics of one workload."""
    plain = spawn_segment(name, seed, 0, quick, trace=False)
    traced = [spawn_segment(name, seed, k, quick, trace=True) for k in range(segments)]
    harness.assert_deterministic([plain, traced[0]])
    run = harness.reduce_run([[t] for t in traced], WORKLOADS[name].shape, not quick)
    ops = run["operations"]
    counts = run["counts"]
    layers = [t["layers"] for t in traced]

    def total(group: str, key: str) -> float:
        return sum(layer[group].get(key, 0.0) for layer in layers)

    # Layer times are totals, so they are brought to the host's full
    # speed with the traced pass's mean slowdowns, not operation by
    # operation as the end-to-end latencies are.
    slowdown = run["metrics"]["host_slowdown"]
    setup_slowdown = run["metrics"]["raw_setup_s"] / run["metrics"]["setup_s"]

    def ms(key: str) -> float:  # measured-phase self time per operation
        return total("measured_s", key) / slowdown / ops * 1e3

    def setup_seconds(key: str) -> float:
        return total("setup_s", key) / setup_slowdown

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_op(key: str) -> float:
        return counts[key] / ops

    core_queries = max(1.0, total("core", "queries"))
    process = counts["parallel.live_workers"] > 0
    plan_lookups = total("core", "plan_cache_hits") + total("core", "plan_cache_misses")
    # Traced and untraced segment 0 ran minutes apart: compare them at
    # the host's full speed, as the end-to-end latencies are.
    overhead = sum(harness.normalised(traced[0])[0]) / sum(harness.normalised(plain)[0])
    metrics = {
        "frontdoor.self_ms": ms("frontdoor"),
        "frontdoor.l1_hit_ratio": ratio(counts["frontdoor.l1_hits"], counts["reads"]),
        "frontdoor.l2_hit_ratio": ratio(counts["frontdoor.l2_hits"], counts["reads"]),
        "frontdoor.tiles_per_l2_hit": ratio(
            counts["frontdoor.l2_tiles"], counts["served.l2"]
        ),
        "frontdoor.invalidations_write": counts["frontdoor.invalidations_write"],
        "frontdoor.invalidations_slot": counts["frontdoor.invalidations_slot"],
        "frontdoor.invalidations_stale": counts["frontdoor.invalidations_stale"],
        "frontdoor.shed": counts["frontdoor.shed"],
        "federation.self_ms": ms("federation"),
        "federation.subqueries_per_req": per_op("federation.subqueries"),
        "federation.topup_rounds": counts["federation.topup_rounds"],
        "federation.topup_gain": counts["federation.topup_gain"],
        "federation.partial": counts["federation.partial"],
        "parallel.scatter_ms": ms("federation") if process else 0.0,
        "parallel.worker_cpu_s": run["worker_cpu_s"] if process else 0.0,
        "parallel.spawn_s": setup_seconds("federation") if process else 0.0,
        "portal.self_ms": ms("portal"),
        "portal.group_ms": ms("portal.group"),
        "portal.calls_per_req": total("calls", "portal") / ops,
        "core.query_self_ms": ms("core") - ms("core.ingest") - ms("core.build"),
        "core.ingest_ms": ms("core.ingest"),
        "core.nodes_per_query": total("core", "nodes_traversed") / core_queries,
        "core.readings_scanned_per_query": total("core", "readings_scanned")
        / core_queries,
        "core.slots_combined_per_query": total("core", "slots_combined") / core_queries,
        "core.maintenance_ops_per_query": total("core", "maintenance_ops")
        / core_queries,
        "core.plan_cache_hit_ratio": ratio(total("core", "plan_cache_hits"), plan_lookups),
        "core.build_s": setup_seconds("core.build") / segments,
        "transport.self_ms": ms("transport"),
        "transport.rounds_per_req": per_op("transport.rounds"),
        "transport.attempts_per_req": per_op("transport.attempts"),
        "transport.retry_ratio": ratio(
            counts["transport.retries"], counts["transport.attempts"]
        ),
        "transport.dedup_ratio": ratio(
            counts["transport.dedup_hits"],
            counts["transport.dedup_hits"] + counts["transport.attempts"],
        ),
        "transport.cooldown_skips": counts["transport.cooldown_skips"],
        "sensors.self_ms": ms("sensors"),
        "sensors.probes_attempted": counts["network.probes_attempted"],
        "sensors.success_ratio": ratio(
            counts["network.probes_succeeded"], counts["network.probes_attempted"]
        ),
        "storage.journal_ms": ms("storage")
        - ms("storage.checkpoint")
        - ms("storage.recovery"),
        "storage.wal_appends_per_req": per_op("storage.wal_appends"),
        "storage.fsyncs_per_req": per_op("storage.wal_fsyncs"),
        "storage.page_writes": counts["storage.page_writes"],
        "storage.checkpoint_ms": ms("storage.checkpoint"),
        "storage.recovery_ms": ms("storage.recovery"),
        "storage.dir_bytes": sum(t["dir_bytes"] for t in traced) / segments,
        "geoblocks.self_ms": ms("geoblocks"),
        "geoblocks.cells_per_req": ratio(
            counts["geoblocks.interior_cells"] + counts["geoblocks.boundary_cells"],
            counts["reads"],
        ),
        "geoblocks.interior_ratio": ratio(
            counts["geoblocks.interior_cells"],
            counts["geoblocks.interior_cells"] + counts["geoblocks.boundary_cells"],
        ),
        "geoblocks.boundary_subqueries_per_req": ratio(
            counts["geoblocks.boundary_cells"], counts["reads"]
        ),
        "rebalance.absorb_ms": ms("rebalance.absorb"),
        "rebalance.step_ms": ms("rebalance.step"),
        "rebalance.moves": counts.get("rebalance.moves", 0),
        "rebalance.imbalance_mean": ratio(
            counts.get("rebalance.imbalance_sum", 0.0), counts.get("rebalance.runs", 0)
        ),
        "workloads.gen_s": run["gen_s"],
        "trace.overhead_ratio": overhead,
        "host.slowdown": slowdown,
        "trace.max_root_residual": max(layer["max_root_residual"] for layer in layers),
    }
    return {"metrics": metrics, "run": run}


def tier_mix(process_counts: dict, seed: int, segments: int, quick: bool) -> dict:
    """Front-door tier mix of ``proc_mixed``'s rectangle sub-stream on
    both backends: the process side from the measured run, the
    in-process side from a twin replay of the same segments."""
    twin = harness.pool_counts(
        [
            spawn_segment("proc_mixed", seed, segment, quick, False, "inprocess")
            for segment in range(segments)
        ]
    )

    def mix(counts: dict) -> dict:
        return {
            **{tier: counts.get(f"tier.rect.{tier}", 0) for tier in ("l1", "l2", "portal")},
            "invalidations_write": counts["frontdoor.invalidations_write"],
        }

    return {"process": mix(process_counts), "inprocess": mix(twin)}


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as f:
        return json.load(f)


def units(spec: dict, group: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[group]}


def print_metrics(name: str, metrics: dict, unit_of: dict, run: dict) -> None:
    """Every metric by name with its unit.  Metrics ``BENCHMARK.json``
    does not list are informational: reported, never gated."""
    beyond = run["samples_beyond"]
    print(f"\n== {name}: {run['operations']} operations, {run['failed']} failed ==")
    for metric, value in metrics.items():
        unit = unit_of.get(metric) or metric.rsplit("_", 1)[-1]
        note = "" if metric in unit_of else "   [informational]"
        for p in ("p50", "p95", "p99"):
            if metric == f"latency_{p}_ms":
                note += f"   ({beyond[p]} samples beyond)"
        print(f"  {metric:<40} {value:>14.6g} {unit:<6}{note}")
    for error in run["shape_errors"]:
        print(f"  SHAPE CHECK FAILED: {error}", file=sys.stderr)
    for failure in run["failures"]:
        print(f"  FAILED OPERATION: {failure}", file=sys.stderr)


def stamp(quick: bool, seed: int, segments: int, reps: int) -> dict:
    def git(*argv: str) -> str | None:
        try:
            return subprocess.run(
                ["git", *argv], cwd=REPO, capture_output=True, text=True, check=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {
        "quick": quick,
        "seed": seed,
        "segments": segments,
        "reps": reps,
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "unix_time": int(time.time()),
    }


def refuse_committed_path(path: Path) -> None:
    """``--quick`` numbers must never land where baselines live."""
    resolved = path.resolve()
    inside_out = OUT.resolve() in resolved.parents
    inside_repo = REPO.resolve() in resolved.parents
    if inside_repo and not inside_out:
        raise SystemExit(
            f"--quick refuses to write {path}: only {OUT.relative_to(REPO)}/ "
            "(git-ignored) or a path outside the repository"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="how long one run measures; picks the number of ~3 s segments "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=1, help="best-of-reps replays")
    parser.add_argument("--quick", action="store_true", help="~1/10 of the requests, reps=1")
    parser.add_argument("--out", type=Path, help="write a result file for compare.py")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--segment", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--execution", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)

    spec = load_spec()
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.quick:
        args.reps = 1
        if args.out is not None:
            refuse_committed_path(args.out)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    segments = 1 if args.quick else harness.segments_for(seconds)
    names = [args.workload] if args.workload else list(WORKLOADS)

    results: dict[str, dict] = {}
    ok = True
    if args.trace and args.workload:
        # Driver contract: --trace 1 reports the per-layer metrics only.
        layer = per_layer(args.workload, args.seed, segments, args.quick)
        results[args.workload] = {"per_layer": layer["metrics"], **layer["run"]}
        print_metrics(args.workload, layer["metrics"], units(spec, "per_layer"), layer["run"])
    else:
        runs = measure(names, args.seed, segments, args.reps, args.quick)
        for name in names:
            results[name] = {"end_to_end": runs[name].pop("metrics"), **runs[name]}
            print_metrics(name, results[name]["end_to_end"], units(spec, "end_to_end"), runs[name])
            if args.trace:
                layer = per_layer(name, args.seed, segments, args.quick)
                results[name]["per_layer"] = layer["metrics"]
                print_metrics(name, layer["metrics"], units(spec, "per_layer"), layer["run"])
    for result in results.values():
        ok = ok and not result["failed"] and not result["shape_errors"]

    if args.out is not None:
        document = {
            "stamp": stamp(args.quick, args.seed, segments, args.reps),
            "workloads": results,
        }
        if "proc_mixed" in results:
            document["tier_mix_rect"] = tier_mix(
                results["proc_mixed"]["counts"], args.seed, segments, args.quick
            )
            print(f"\nproc_mixed rectangle sub-stream, tier mix: {document['tier_mix_rect']}")
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(document, f, indent=1)
        print(f"result file -> {args.out}")

    if args.workload:
        result = results[args.workload]
        metrics = result["per_layer"] if args.trace else result["end_to_end"]
        unit_of = units(spec, "per_layer" if args.trace else "end_to_end")
        print(
            json.dumps(
                {
                    "correct": ok,
                    "attempted": result["operations"],
                    "failed": result["failed"],
                    "metrics": {
                        name: {"value": metrics[name], "unit": unit}
                        for name, unit in unit_of.items()
                    },
                }
            )
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
