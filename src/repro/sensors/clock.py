"""A deterministic virtual clock.

Everything in the reproduction — reading timestamps, expiry instants,
slot-cache slides, query freshness bounds — is driven by one shared
``SimClock`` so experiments are reproducible and can compress hours of
wall-clock time into a fast benchmark run.
"""

from __future__ import annotations


class SimClock:
    """Monotonic simulated time in seconds.

    The clock never goes backwards; ``advance`` with a negative delta is
    an error rather than a silent rewind, because slot caches assume a
    monotone timeline when they slide.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, instant: float) -> float:
        """Move time forward to an absolute instant (no-op if in the past)."""
        if instant > self._now:
            self._now = instant
        return self._now
