"""Transport-layer configuration.

The knobs mirror the dispatcher's three jobs: dedup (``inflight_ttl``),
reliability (``max_retries`` / ``backoff_*`` / ``cooldown_*``) and
scheduling (``overlap_enabled`` / ``stream_chunk``).  The defaults are a
reasonable portal posture; ``TransportConfig.parity()`` builds the
degenerate configuration under which the dispatcher is bit-identical to
a direct ``SensorNetwork.probe`` call (no retries, no overlap, no
tables) — the property tests pin that contract.  It is what a portal or
tree built without a transport config runs: there is no probe path
around the dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TransportConfig:
    """Knobs for the probe-transport dispatcher.

    Parameters
    ----------
    max_retries:
        Extra wire contacts allowed per logical probe after the first
        attempt fails.  0 disables retrying.
    backoff_base:
        Delay (simulated seconds) before the first retry; subsequent
        retries wait ``backoff_base * backoff_multiplier**k``.
    backoff_multiplier:
        Exponential growth factor of the retry delay.
    backoff_jitter:
        Relative jitter applied to each backoff delay (a delay ``d``
        becomes ``d * (1 + U(-jitter, +jitter))``), drawn from the
        dispatcher's own RNG so the network RNG stream is untouched.
    inflight_ttl:
        Freshness window (seconds) of the recently-probed table: a
        sensor resolved less than ``inflight_ttl`` ago is not contacted
        again — a cached success is served (subject to the requester's
        staleness bound), a cached failure is reported without traffic.
        0 disables the table.
    cooldown_seconds:
        After a logical probe fails and the sensor's historical
        availability estimate is below ``cooldown_threshold``, further
        requests are skipped for this long.  0 disables cooldown.
    cooldown_threshold:
        Availability-model estimate below which a failing sensor enters
        cooldown.
    overlap_enabled:
        When True, all probe rounds submitted to the dispatcher share
        one simulated-time event queue and one pool of
        ``network.parallelism`` connections, so multiple trees' rounds
        overlap in simulated wall time.  When False each round runs to
        completion by itself, exactly like a synchronous ``probe`` call.
    stream_chunk:
        Streaming-ingestion granularity: completed readings are flushed
        into ``COLRTree.insert_readings_batch`` every this-many
        completions (and at round end) in completion order.
    seed:
        Seed of the dispatcher's private RNG (backoff jitter only).
    """

    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    inflight_ttl: float = 60.0
    cooldown_seconds: float = 300.0
    cooldown_threshold: float = 0.5
    overlap_enabled: bool = True
    stream_chunk: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be at least 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")
        if self.inflight_ttl < 0:
            raise ValueError("inflight_ttl must be non-negative")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        if not 0.0 <= self.cooldown_threshold <= 1.0:
            raise ValueError("cooldown_threshold must be in [0, 1]")
        if self.stream_chunk < 1:
            raise ValueError("stream_chunk must be at least 1")

    @property
    def is_parity(self) -> bool:
        """True when this configuration is bit-identical to the
        synchronous path: no retries, no overlap, no dedup tables."""
        return (
            self.max_retries == 0
            and not self.overlap_enabled
            and self.inflight_ttl == 0
            and self.cooldown_seconds == 0
        )

    @classmethod
    def parity(cls, **overrides: object) -> "TransportConfig":
        """The degenerate configuration under which the dispatcher is
        provably bit-identical to direct ``network.probe`` calls."""
        base = dict(
            max_retries=0,
            overlap_enabled=False,
            inflight_ttl=0.0,
            cooldown_seconds=0.0,
        )
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]
