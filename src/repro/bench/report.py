"""Plain-text table formatting for experiment output.

Every figure driver prints through this module so the regenerated
"figures" are consistent, diff-able rows.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import asdict
from pathlib import Path
from typing import Sequence


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
    wall_seconds: float | None = None,
) -> str:
    """Fixed-width table with right-aligned numeric columns.

    ``wall_seconds`` appends a footer row reporting the real time the
    driver spent producing the table — the paper figures report modeled
    quantities, and the footer keeps modeled-vs-real visible everywhere.
    """
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
    if wall_seconds is not None:
        lines.append(f"wall_seconds: {wall_seconds:.3f}")
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


def network_counters(stats) -> dict[str, object]:
    """The reportable slice of a ``NetworkStats``, transport and
    storage meters included (both stay zero on purely synchronous /
    in-memory runs)."""
    return {
        "probes_attempted": stats.probes_attempted,
        "probes_succeeded": stats.probes_succeeded,
        "probes_unavailable": stats.probes_unavailable,
        "probes_timed_out": stats.probes_timed_out,
        "probes_retried": stats.probes_retried,
        "probes_deduped": stats.probes_deduped,
        "probes_cooldown_skipped": stats.probes_cooldown_skipped,
        "batches": stats.batches,
        "total_collection_seconds": stats.total_latency_seconds,
        "page_reads": stats.page_reads,
        "page_writes": stats.page_writes,
        "wal_appends": stats.wal_appends,
        "wal_fsyncs": stats.wal_fsyncs,
        "polygon_cells_interior": stats.polygon_cells_interior,
        "polygon_cells_boundary": stats.polygon_cells_boundary,
        "window_cells_reused": stats.window_cells_reused,
    }


def transport_counters(stats) -> dict[str, object]:
    """Every counter of a dispatcher's ``TransportStats``."""
    return asdict(stats)


def storage_counters(stats) -> dict[str, object]:
    """Every counter of a ``StorageStats`` (the storage engine's
    cumulative disk accounting)."""
    return asdict(stats)


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
