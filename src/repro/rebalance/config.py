"""Rebalancer policy knobs."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RebalanceConfig"]


@dataclass(frozen=True)
class RebalanceConfig:
    """Bounds of the background rebalancer.

    A step never moves more than ``max_moves_per_step`` sensors, so the
    coordinator-side work interleaved with query traffic is bounded.
    ``imbalance_tolerance`` is the stopping rule for plain moves —
    within that relative spread the fleet counts as balanced.  The
    split and merge triggers are the constants
    :data:`~repro.rebalance.rebalancer.SPLIT_FACTOR` and
    :data:`~repro.rebalance.rebalancer.MERGE_FRACTION`.
    """

    max_moves_per_step: int = 64
    imbalance_tolerance: float = 0.10

    def __post_init__(self) -> None:
        if self.max_moves_per_step < 1:
            raise ValueError("max_moves_per_step must be at least 1")
        if self.imbalance_tolerance < 0.0:
            raise ValueError("imbalance_tolerance must be non-negative")
