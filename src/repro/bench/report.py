"""What every bench measures and prints with: the wall timer, the order
statistics of a metered series, the artifact stamp and the plain-text
tables the runner's summary and the CLI print.
"""

from __future__ import annotations

import math
import os
import subprocess
import time
from pathlib import Path
from typing import Iterable, Sequence


class WallTimer:
    """Context-managed wall-clock stopwatch for bench sections.

    Modeled seconds (the simulated-clock costs the paper's model
    predicts) and wall seconds (what this machine actually spent) are
    reported side by side in every benchmark; this is the one way the
    wall side gets measured.

    >>> with WallTimer() as t:
    ...     do_work()
    >>> t.seconds
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: float | None = None

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None
        self.seconds = time.perf_counter() - self._start
        self._start = None


class StreamSummary:
    """Order statistics over one metered series (latencies, errors...).

    Every bench that reports a latency distribution goes through this
    instead of ad-hoc ``np.percentile`` calls, so p50/p95/p99 mean the
    same thing in every ``BENCH_*.json``: linear interpolation between
    closest ranks (numpy's default), computed over the full retained
    series — these benches meter thousands of queries, not billions, so
    an exact summary is cheaper than a sketch would be.
    """

    __slots__ = ("_sorted",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._sorted = sorted(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def mean(self) -> float:
        if not self._sorted:
            raise ValueError("no observations")
        return sum(self._sorted) / len(self._sorted)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), linearly interpolated
        between closest ranks — value-identical to
        ``numpy.percentile(values, p)`` for finite inputs."""
        if not self._sorted:
            raise ValueError("no observations")
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        xs = self._sorted
        rank = (p / 100.0) * (len(xs) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return xs[int(rank)]
        frac = rank - lo
        return xs[lo] + frac * (xs[hi] - xs[lo])

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def as_dict(self) -> dict[str, float | int]:
        """The JSON-artifact shape every bench embeds."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


def timed(phase, *args) -> dict:
    """Run one bench phase and record its host time beside its results."""
    with WallTimer() as timer:
        out = phase(*args)
    out["wall_seconds"] = timer.seconds
    return out


def git_fingerprint(checkout: Path = Path(__file__).parent) -> dict[str, object]:
    """The commit this bench ran against, for artifact attribution.

    Returns ``{"git_commit": <sha or None>, "git_dirty": <bool or
    None>}``, read from ``checkout`` (by default the one this module
    lives in).  ``None``s mean git itself was unavailable (artifact
    built outside a checkout) — the artifact stays valid, just
    unattributed.  ``git_dirty`` is true when tracked files differ from
    the commit, so a perf number from an uncommitted tree can never
    masquerade as the commit's.  The root ``BENCH_*.json`` artifacts
    are outputs, not inputs: rewriting one must not mark the run that
    writes the next one dirty.
    """

    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", *argv],
            cwd=checkout,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        status = git(
            "status",
            "--porcelain",
            "--untracked-files=no",
            "--",
            ":(top)",
            ":(top,exclude)BENCH_*.json",
        )
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": commit, "git_dirty": bool(status)}


def run_stamp(wall_seconds: float) -> dict[str, object]:
    """The ``stamp`` of a ``BENCH_*.json``: when the run happened, how
    long it took on which host, and which commit produced it — the only
    part of an artifact, beside its ``*wall_*`` leaves, that differs
    between two runs of one commit."""
    return {
        "unix_time": int(time.time()),
        "wall_seconds": wall_seconds,
        "cpu_count": os.cpu_count(),
        **git_fingerprint(),
    }


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    rendered: list[list[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_counters(
    counters: dict[str, object], title: str | None = None
) -> str:
    """One name/value row per counter, in insertion order — the shape
    used for NetworkStats / TransportStats surfaces in bench output and
    the CLI."""
    return format_table(
        ("counter", "value"), [(k, v) for k, v in counters.items()], title=title
    )


def _fmt(cell: object) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)
