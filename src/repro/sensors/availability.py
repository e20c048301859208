"""Sensor availability: ground truth and historical estimates.

Section V of the paper scales the sample target by ``1/a`` where ``a``
is the *historical* mean availability of the sensors below a node, on
the observation that past availability predicts future availability.
We therefore keep two views:

* the ground-truth per-sensor probability, owned by the network and used
  to decide whether each simulated probe succeeds; and
* a history of probe outcomes, from which ``estimate()`` computes the
  smoothed availability the index is allowed to see.

The smoothing is a Beta(1, 1) (add-one) prior so brand-new sensors are
assumed available rather than dividing by zero.  An optional
exponential ``decay`` discounts old outcomes so the estimate tracks
fleets whose reliability drifts (a phone-hosted sensor moving in and
out of coverage); ``decay=1.0`` (default) is the plain all-history
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _History:
    successes: float = 0.0
    failures: float = 0.0


class AvailabilityModel:
    """Tracks probe outcomes and serves historical availability estimates."""

    def __init__(
        self,
        prior_successes: float = 1.0,
        prior_failures: float = 1.0,
        decay: float = 1.0,
    ) -> None:
        if prior_successes <= 0 or prior_failures < 0:
            raise ValueError("priors must be positive (successes) / non-negative")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self._prior_s = float(prior_successes)
        self._prior_f = float(prior_failures)
        self.decay = float(decay)
        self._history: dict[int, _History] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, sensor_id: int, success: bool) -> None:
        """Record one probe outcome for a sensor.

        With ``decay < 1`` the existing counts are discounted first, so
        the effective history window is ~``1 / (1 - decay)`` outcomes.
        """
        h = self._history.setdefault(sensor_id, _History())
        if self.decay < 1.0:
            h.successes *= self.decay
            h.failures *= self.decay
        if success:
            h.successes += 1
        else:
            h.failures += 1

    def seed(self, sensor_id: int, successes: int, failures: int) -> None:
        """Bulk-load a synthetic history (used by workload generators so
        the index starts with informative estimates, as the deployed
        SensorMap portal would)."""
        if successes < 0 or failures < 0:
            raise ValueError("history counts must be non-negative")
        h = self._history.setdefault(sensor_id, _History())
        h.successes += successes
        h.failures += failures

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def estimate(self, sensor_id: int) -> float:
        """Smoothed historical availability of one sensor in (0, 1]."""
        h = self._history.get(sensor_id)
        if h is None:
            s, f = self._prior_s, self._prior_f
        else:
            s = h.successes + self._prior_s
            f = h.failures + self._prior_f
        return s / (s + f)

    def mean_estimate(self, sensor_ids: list[int]) -> float:
        """Mean availability over a sensor set — the ``a`` of Algorithm 1.

        Clamped away from zero so the ``1/a`` oversampling factor stays
        finite even for a pathologically dead subtree.
        """
        if not sensor_ids:
            return 1.0
        total = 0.0
        for sid in sensor_ids:
            total += self.estimate(sid)
        return max(1e-3, total / len(sensor_ids))
