"""Spatial interpolation models.

A model predicts a value at an unobserved location from nearby observed
samples.  The one provided is deliberately simple — the point of the
model-view layer is the *composition* with COLR-Tree's cache, not model
sophistication — but the protocol accommodates richer models.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.geometry import GeoPoint


@runtime_checkable
class SpatialModel(Protocol):
    """The model protocol the view layer consumes."""

    def fit(self, locations: Sequence[GeoPoint], values: Sequence[float]) -> None:
        """Absorb observed samples."""
        ...

    def predict(self, p: GeoPoint) -> float:
        """Estimate the value at an arbitrary location."""
        ...


class IDWModel:
    """Inverse-distance weighting: ``sum(w_i v_i) / sum(w_i)`` with
    ``w_i = 1 / d_i^power``.  A sample within ``snap_epsilon`` of the
    query point answers exactly."""

    def __init__(self, power: float = 2.0, snap_epsilon: float = 1e-9) -> None:
        if power <= 0:
            raise ValueError("power must be positive")
        self.power = float(power)
        self.snap_epsilon = float(snap_epsilon)
        self._xs = np.empty(0)
        self._ys = np.empty(0)
        self._values = np.empty(0)

    def fit(self, locations: Sequence[GeoPoint], values: Sequence[float]) -> None:
        if len(locations) != len(values):
            raise ValueError("locations and values must align")
        self._xs = np.array([p.x for p in locations], dtype=np.float64)
        self._ys = np.array([p.y for p in locations], dtype=np.float64)
        self._values = np.asarray(values, dtype=np.float64)

    def predict(self, p: GeoPoint) -> float:
        if self._values.size == 0:
            raise ValueError("model has no samples; call fit() first")
        d = np.hypot(self._xs - p.x, self._ys - p.y)
        nearest = int(d.argmin())
        if d[nearest] <= self.snap_epsilon:
            return float(self._values[nearest])
        w = d ** (-self.power)
        return float((w * self._values).sum() / w.sum())
