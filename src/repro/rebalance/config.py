"""Rebalancer policy knobs."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RebalanceConfig"]


@dataclass(frozen=True)
class RebalanceConfig:
    """Bounds and triggers for the background rebalancer.

    A step never moves more than ``max_moves_per_step`` sensors, so the
    coordinator-side work interleaved with query traffic is bounded.
    Split/merge triggers follow the population-bounded discipline: a
    shard heavier than ``split_factor`` x the mean population splits, a
    shard lighter than ``merge_fraction`` x the mean merges into its
    nearest neighbour.  ``imbalance_tolerance`` is the stopping rule
    for plain moves — within that relative spread the fleet counts as
    balanced.  ``split_load_factor``, when set, adds a *query-load*
    trigger: a shard whose share of scatter subqueries exceeds that
    multiple of the mean splits even if its population is balanced
    (hotspot drift concentrates queries, not sensors).
    """

    max_moves_per_step: int = 64
    split_factor: float = 2.0
    merge_fraction: float = 0.25
    imbalance_tolerance: float = 0.10
    split_load_factor: float | None = None

    def __post_init__(self) -> None:
        if self.max_moves_per_step < 1:
            raise ValueError("max_moves_per_step must be at least 1")
        if self.split_factor <= 1.0:
            raise ValueError("split_factor must exceed 1.0")
        if not 0.0 < self.merge_fraction < 1.0:
            raise ValueError("merge_fraction must be in (0, 1)")
        if self.imbalance_tolerance < 0.0:
            raise ValueError("imbalance_tolerance must be non-negative")
        if self.split_load_factor is not None and self.split_load_factor <= 1.0:
            raise ValueError("split_load_factor must exceed 1.0")
