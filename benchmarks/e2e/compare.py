#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload x end-to-end metric it prints both values, the ratio
B/A (A is the base), the regression bound from ``BENCHMARK.json`` and a
verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  B reads worse by more than the bound, but the
                  rep-to-rep spread recorded in either file (``--reps``
                  >= 2) is itself wider than the bound, so the reading
                  does not resolve a difference of that size.

Exit status is non-zero on any ``worse`` or when B failed a larger
share of its operations than A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
COMPARABLE = ("quick", "seed", "segments")


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A by which B is worse (negative when B is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    if worse_by(a, b, better) <= bound:
        return "ok"
    return "unresolved" if spread > bound else "worse"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], list[str]]:
    """Rows ``(workload, metric, a, b, ratio, bound, verdict)`` and the
    reasons, if any, for a non-zero exit."""
    rows: list[tuple] = []
    problems: list[str] = []
    for key in COMPARABLE:
        if a["stamp"][key] != b["stamp"][key]:
            problems.append(
                f"not comparable: {key} is {a['stamp'][key]} in A, {b['stamp'][key]} in B"
            )
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            problems.append(f"{workload}: missing from one file")
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
            spread = max(
                wa.get("rep_spread", {}).get(name, 0.0),
                wb.get("rep_spread", {}).get(name, 0.0),
            )
            result = verdict(va, vb, metric["better"], metric["bound"], spread)
            rows.append((workload, name, va, vb, vb / va, metric["bound"], result))
            if result == "worse":
                problems.append(f"{workload} {name}: worse by more than the bound")
        fa, fb = wa["failed"] / wa["operations"], wb["failed"] / wb["operations"]
        rows.append((workload, "failed_fraction", fa, fb, float("nan"), 0.0,
                     "ok" if fb <= fa else "worse"))
        if fb > fa:
            problems.append(f"{workload}: failed fraction rose from {fa:.4g} to {fb:.4g}")
    return rows, problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    with open(REPO / "BENCHMARK.json") as f:
        spec = json.load(f)
    rows, problems = compare(a, b, spec)
    print(f"{'workload':<11} {'metric':<18} {'A (base)':>12} {'B':>12} {'B/A':>7} "
          f"{'bound':>6}  verdict")
    for workload, name, va, vb, ratio, bound, result in rows:
        print(f"{workload:<11} {name:<18} {va:>12.5g} {vb:>12.5g} {ratio:>7.3f} "
              f"{bound:>6.2f}  {result}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
