"""The simulated probe endpoint.

``SensorNetwork`` is the only component allowed to produce fresh
readings.  Every probe is metered: the benchmark harness reads the
counters to reproduce the paper's "# sensor probes" axes, and the
latency model converts batch sizes into a simulated collection latency
(probes run in parallel up to a connection limit, as a web portal's data
collector would).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.sensors.availability import AvailabilityModel
from repro.sensors.sensor import Reading, Sensor


@dataclass(frozen=True, slots=True)
class ProbeAttempt:
    """One wire-level contact with one sensor, before any accounting.

    ``ok`` is the joint outcome (available *and* within the timeout);
    ``timed_out`` distinguishes the two failure modes; ``latency_seconds``
    is the sampled per-connection latency (capped at the timeout when one
    is configured — a timed-out probe occupies its connection for the full
    timeout).  Attempts carry no reading: the transport layer decides when
    a contact becomes a delivered reading.
    """

    sensor_id: int
    ok: bool
    timed_out: bool
    latency_seconds: float


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """Outcome of one batch probe.

    ``readings`` maps sensor id to the fresh reading for every sensor
    that answered; ``unavailable`` lists sensors that were contacted but
    did not answer, ``timed_out`` those whose connection exceeded the
    collector's timeout.  ``latency_seconds`` is the simulated
    wall-clock cost of the batch under the parallel collection model.
    """

    readings: Mapping[int, Reading]
    unavailable: tuple[int, ...]
    timed_out: tuple[int, ...]
    latency_seconds: float


@dataclass
class NetworkStats:
    """Cumulative wire-level probe accounting for an experiment run.

    Every counter has one owner: the dispatcher's retries, dedup hits
    and cooldown skips are ``TransportStats``', a batch tick's
    coalescing is ``BatchStats``', disk I/O is ``StorageStats``'."""

    probes_attempted: int = 0
    probes_succeeded: int = 0
    # Failure breakdown: sensors that answered "no" vs. connections the
    # collector abandoned at its timeout.  Counted per wire attempt.
    probes_unavailable: int = 0
    probes_timed_out: int = 0
    batches: int = 0
    total_latency_seconds: float = 0.0
    # Geoblock-subsystem accounting (zero until a polygon or analytic
    # window query runs): rasterized polygon cells by kind and sliding
    # window cells carried over from the previous step instead of
    # recomputed.  Mirrors the per-query counters in ``QueryStats``.
    polygon_cells_interior: int = 0
    polygon_cells_boundary: int = 0
    window_cells_reused: int = 0


ValueFn = Callable[[Sensor, float], float]


class SensorNetwork:
    """Holds the registered sensors and answers probe batches.

    Parameters
    ----------
    sensors:
        The sensor population.  Ids must be unique.
    value_fn:
        ``(sensor, now) -> value`` ground-truth generator; defaults to a
        hash-derived stable pseudo-value when the experiment does not
        care about values (probe-count experiments).
    availability_model:
        Where probe outcomes are recorded so the index can later read
        historical estimates.  Optional.
    rtt_seconds:
        Base round-trip latency of contacting one sensor.
    parallelism:
        Number of concurrent connections of the data collector; a batch
        of ``n`` probes costs ``ceil(n / parallelism)`` round trips.
    latency_jitter:
        Log-normal sigma of per-probe latency around ``rtt_seconds``;
        0 (default) keeps latencies deterministic.
    timeout_seconds:
        The collector's per-probe timeout: a probe whose sampled
        latency exceeds it is abandoned and reported unavailable (the
        collector cannot tell a slow sensor from a dead one).  ``None``
        disables timeouts.
    seed:
        RNG seed for availability and latency draws.
    """

    def __init__(
        self,
        sensors: Iterable[Sensor],
        value_fn: ValueFn | None = None,
        availability_model: AvailabilityModel | None = None,
        rtt_seconds: float = 0.2,
        parallelism: int = 64,
        latency_jitter: float = 0.0,
        timeout_seconds: float | None = None,
        seed: int = 0,
    ) -> None:
        self._sensors: dict[int, Sensor] = {}
        for sensor in sensors:
            if sensor.sensor_id in self._sensors:
                raise ValueError(f"duplicate sensor id {sensor.sensor_id}")
            self._sensors[sensor.sensor_id] = sensor
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if rtt_seconds < 0:
            raise ValueError("rtt_seconds must be non-negative")
        if latency_jitter < 0:
            raise ValueError("latency_jitter must be non-negative")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive or None")
        self._value_fn = value_fn if value_fn is not None else _default_value
        self.availability_model = availability_model
        self.rtt_seconds = float(rtt_seconds)
        self.parallelism = int(parallelism)
        self.latency_jitter = float(latency_jitter)
        self.timeout_seconds = timeout_seconds
        self._rng = np.random.default_rng(seed)
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, sensor_ids: Iterable[int], now: float) -> ProbeResult:
        """Probe a batch of sensors at simulated instant ``now``.

        Each probe succeeds independently with the sensor's ground-truth
        availability.  Successful probes return a reading timestamped
        ``now`` that expires after the sensor's published expiry
        duration.  Outcomes are recorded in the availability model so
        future oversampling decisions improve.

        Equivalent by construction to ``complete_batch(ids,
        sample_attempts(ids), now)`` — the transport dispatcher uses the
        two halves separately to schedule attempts on an event queue.
        """
        ids = list(sensor_ids)
        return self.complete_batch(ids, self.sample_attempts(ids), now)

    def sample_attempts(
        self, sensor_ids: Iterable[int], *, columns: bool = False
    ) -> list[ProbeAttempt] | tuple[list[bool], list[bool], list[float]]:
        """Sample wire outcomes for a batch of contacts.

        Consumes the network RNG exactly as :meth:`probe` does (one
        availability draw per id, then one latency draw per id), performs
        no accounting and records nothing — the caller decides how the
        attempts aggregate into logical probes.

        ``columns=True`` is the dispatcher's form: the ids are
        independent contacts that happen to share an instant, not one
        collector batch.  The draws are then the stream of
        ``[sample_attempts([sid])[0] for sid in sensor_ids]`` (contact by
        contact: availability, then latency) and come back as three
        parallel lists ``(ok, timed_out, latency_seconds)`` with no
        per-contact object.  Without latency jitter the two orders are
        the same stream.
        """
        ids = list(sensor_ids)
        availability: list[float] = []
        for sid in ids:
            sensor = self._sensors.get(sid)
            if sensor is None:
                raise KeyError(f"unknown sensor id {sid}")
            availability.append(sensor.availability)
        n = len(ids)
        rng, rtt, sigma = self._rng, self.rtt_seconds, self.latency_jitter
        if columns and sigma > 0.0:
            draws, latencies = [], []
            for _ in range(n):
                draws.append(rng.random())
                # np.exp of a scalar runs the size-1 ufunc loop, so this
                # is the double a one-id call computes.
                latencies.append(float(rtt * np.exp(rng.normal(0.0, sigma))))
        else:
            draws = rng.random(n).tolist()
            if sigma > 0.0:  # log-normal jitter around the base RTT
                latencies = (rtt * np.exp(rng.normal(0.0, sigma, n))).tolist()
            else:
                latencies = [rtt] * n
        timeout = self.timeout_seconds
        if timeout is None:
            timed_out = [False] * n
        else:
            # A timed-out probe occupies its connection for the full
            # timeout and is indistinguishable from a dead sensor.
            timed_out = [latency > timeout for latency in latencies]
            latencies = [min(latency, float(timeout)) for latency in latencies]
        ok = [
            draw < available and not late
            for draw, available, late in zip(draws, availability, timed_out)
        ]
        if columns:
            return ok, timed_out, latencies
        return [ProbeAttempt(*row) for row in zip(ids, ok, timed_out, latencies)]

    def build_reading(self, sensor_id: int, now: float) -> Reading:
        """Materialize the reading a successful contact delivers."""
        sensor = self._sensors[sensor_id]
        return Reading(
            sensor_id=sensor_id,
            value=self._value_fn(sensor, now),
            timestamp=now,
            expires_at=now + sensor.expiry_seconds,
        )

    def record_outcome(self, sensor_id: int, success: bool) -> None:
        """Record one *logical* probe outcome in the availability model.

        The dispatcher calls this once per logical probe (after retries
        resolve), never once per attempt, so retrying does not multiply a
        sensor's history."""
        if self.availability_model is not None:
            self.availability_model.record(sensor_id, success)

    def complete_batch(
        self,
        sensor_ids: list[int],
        attempts: list[ProbeAttempt],
        now: float,
    ) -> ProbeResult:
        """Turn sampled attempts into a fully-accounted ``ProbeResult``.

        ``attempts`` must be in ``sensor_ids`` order (as returned by
        :meth:`sample_attempts`): availability recording and value
        generation happen in that order, which is what keeps
        ``probe() == complete_batch(sample_attempts())`` bit-identical.
        """
        ids = sensor_ids
        readings: dict[int, Reading] = {}
        unavailable: list[int] = []
        timed: list[int] = []
        for attempt in attempts:
            self.record_outcome(attempt.sensor_id, attempt.ok)
            if attempt.ok:
                readings[attempt.sensor_id] = self.build_reading(attempt.sensor_id, now)
            elif attempt.timed_out:
                timed.append(attempt.sensor_id)
            else:
                unavailable.append(attempt.sensor_id)
        latency = self._batch_latency_from(
            np.array([a.latency_seconds for a in attempts])
        )
        self.stats.probes_attempted += len(ids)
        self.stats.probes_succeeded += len(readings)
        self.stats.probes_unavailable += len(unavailable)
        self.stats.probes_timed_out += len(timed)
        self.stats.batches += 1 if ids else 0
        self.stats.total_latency_seconds += latency
        return ProbeResult(
            readings=readings,
            unavailable=tuple(unavailable),
            timed_out=tuple(timed),
            latency_seconds=latency,
        )

    def _batch_latency_from(self, latencies: np.ndarray) -> float:
        """Batch latency: probes run in rounds of ``parallelism``
        concurrent connections; each round lasts as long as its slowest
        probe."""
        n = latencies.size
        if n == 0:
            return 0.0
        rounds = -(-n // self.parallelism)
        # Pad the final round with zeros (latencies are non-negative, so
        # padding never changes a round's max) and reduce in two
        # vectorized steps instead of a Python loop over rounds.
        padded = np.zeros(rounds * self.parallelism)
        padded[:n] = latencies
        return float(padded.reshape(rounds, self.parallelism).max(axis=1).sum())


def _default_value(sensor: Sensor, now: float) -> float:
    """Stable pseudo-value when the experiment ignores reading values."""
    return float((sensor.sensor_id * 2654435761) % 1000) / 10.0
