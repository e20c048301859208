"""A deterministic virtual clock.

Everything in the reproduction — reading timestamps, expiry instants,
slot-cache slides, query freshness bounds — is driven by one shared
``SimClock`` so experiments are reproducible and can compress hours of
wall-clock time into a fast benchmark run.
"""

from __future__ import annotations

import math


class SimClock:
    """Monotonic simulated time in seconds.

    The clock never goes backwards; ``advance`` with a negative delta is
    an error rather than a silent rewind, because slot caches assume a
    monotone timeline when they slide.  Time stays finite: a NaN or
    infinite start, step or instant is an error too (slot arithmetic
    cannot turn one into a slot id).
    """

    def __init__(self, start: float = 0.0) -> None:
        if not math.isfinite(start):
            raise ValueError(f"cannot start the clock at {start}")
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward and return the new time."""
        if not 0 <= seconds < math.inf:
            raise ValueError(f"cannot advance time by {seconds} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, instant: float) -> float:
        """Move time forward to an absolute instant (no-op if in the past)."""
        if not math.isfinite(instant):
            raise ValueError(f"cannot move time to {instant}")
        if instant > self._now:
            self._now = instant
        return self._now
