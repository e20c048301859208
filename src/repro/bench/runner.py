"""One spine for the nine subsystem benches.

A bench module is only its phases and gates: it exposes ``BENCH``, a
:class:`Bench` record naming the two parameter sets it runs at (``full``
— what the committed ``BENCH_<name>.json`` holds — and ``quick`` — CI
smoke scale) and a ``run(**params)`` that returns ``{"phases": {name:
{...}}, "checks": {gate: True | False | None}}``.  Everything else lives
here, once: argument parsing, the wall timer, the stamp, the write, the
summary print and the ``--check`` exit code.

    python -m repro.bench NAME... | --all [--quick] [--check] [--out DIR]

Every artifact has one schema — ``benchmark, scale, params, phases,
checks, stamp`` — and one naming rule: a leaf is host wall-clock if and
only if some key on its path contains ``wall_``; every other leaf under
``params`` / ``phases`` / ``checks`` is modeled (simulated clock, probe
and node counts) and deterministic per seed, so two runs of one commit
differ only in ``*wall_*`` leaves and the stamp.  A check is ``None``
when the host cannot decide it (the core-count-aware parallel gates).
"""

from __future__ import annotations

import argparse
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.bench.report import WallTimer, format_counters, run_stamp

NAMES = (
    "traversal",
    "batch",
    "transport",
    "federation",
    "parallel",
    "frontdoor",
    "storage",
    "geoblocks",
    "rebalance",
)
SCHEMA_KEYS = ("benchmark", "scale", "params", "phases", "checks", "stamp")
STAMP_KEYS = {"unix_time", "wall_seconds", "git_commit", "git_dirty", "cpu_count"}
# The checkout this module runs from: where the committed full-scale
# artifacts live, and therefore where ``--quick`` must never write.
REPO_ROOT = Path(__file__).resolve().parents[3]
QUICK_OUT = Path("bench-out")


@dataclass(frozen=True)
class Bench:
    """One registered benchmark: its name, its two scales, its phases."""

    name: str
    full: Mapping[str, Any]
    quick: Mapping[str, Any]
    run: Callable[..., dict]


def load(name: str) -> Bench:
    """The ``BENCH`` record of ``repro.bench.<name>``."""
    if name not in NAMES:
        raise SystemExit(f"unknown bench {name!r}; choose from {', '.join(NAMES)}")
    return importlib.import_module(f"repro.bench.{name}").BENCH


def run_bench(bench: Bench, quick: bool) -> dict:
    """Run one bench at one scale and wrap its outcome in the schema."""
    params = dict(bench.quick if quick else bench.full)
    with WallTimer() as timer:
        outcome = bench.run(**params)
    artifact = {
        "benchmark": bench.name,
        "scale": "quick" if quick else "full",
        "params": params,
        "phases": outcome["phases"],
        "checks": outcome["checks"],
        "stamp": run_stamp(timer.seconds),
    }
    validate(artifact)
    return artifact


def validate(artifact: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``artifact`` has the one schema."""
    if tuple(artifact) != SCHEMA_KEYS:
        raise ValueError(f"top-level keys {tuple(artifact)} != {SCHEMA_KEYS}")
    if artifact["benchmark"] not in NAMES:
        raise ValueError(f"unregistered benchmark {artifact['benchmark']!r}")
    if artifact["scale"] not in ("full", "quick"):
        raise ValueError(f"scale {artifact['scale']!r} is neither full nor quick")
    phases, checks = artifact["phases"], artifact["checks"]
    if not phases or not all(isinstance(body, dict) for body in phases.values()):
        raise ValueError("phases must be a non-empty {name: {...}} mapping")
    if not checks or not all(ok is None or isinstance(ok, bool) for ok in checks.values()):
        raise ValueError("checks must be a non-empty {gate: True|False|None} mapping")
    missing = STAMP_KEYS - set(artifact["stamp"])
    if missing:
        raise ValueError(f"stamp lacks {sorted(missing)}")


def summary(artifact: Mapping[str, Any]) -> str:
    """The checks, then each phase's scalars (nested detail stays in the
    JSON)."""
    verdict = {True: "pass", False: "FAIL", None: "skipped"}
    blocks = [
        format_counters(
            {gate: verdict[ok] for gate, ok in artifact["checks"].items()},
            title=f"{artifact['benchmark']} bench ({artifact['scale']}): checks",
        )
    ]
    for name, body in artifact["phases"].items():
        scalars = {k: v for k, v in body.items() if not isinstance(v, (dict, list))}
        if scalars:
            blocks.append(format_counters(scalars, title=name))
    return "\n\n".join(blocks)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The four settable values of every subsystem bench."""
    parser.add_argument(
        "names", nargs="*", metavar="NAME", help=f"benches to run: {', '.join(NAMES)}"
    )
    parser.add_argument("--all", action="store_true", help="run every registered bench")
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument(
        "--check", action="store_true", help="exit nonzero if any check is False"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for BENCH_<name>.json (default: the current directory, "
        f"or {QUICK_OUT}/ under --quick)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    if args.all == bool(args.names):
        raise SystemExit("name one or more benches, or pass --all (not both)")
    benches = [load(name) for name in (NAMES if args.all else args.names)]
    out = args.out if args.out is not None else (QUICK_OUT if args.quick else Path("."))
    if args.quick and out.resolve() == REPO_ROOT:
        raise SystemExit(
            f"--quick refuses to write BENCH_*.json into {REPO_ROOT}: the "
            "repository root holds the committed full-scale artifacts"
        )
    out.mkdir(parents=True, exist_ok=True)
    failed: list[str] = []
    for bench in benches:
        artifact = run_bench(bench, args.quick)
        path = out / f"BENCH_{bench.name}.json"
        path.write_text(json.dumps(artifact, indent=2) + "\n")
        print(summary(artifact))
        print(f"\n{bench.name} bench -> {path}\n")
        failed += [
            f"{bench.name}: {gate}"
            for gate, ok in artifact["checks"].items()
            if ok is False
        ]
    for failure in failed:
        print(f"FAIL: {failure}")
    return 1 if failed and args.check else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))
