"""Transport-layer configuration.

The knobs mirror the dispatcher's three jobs: dedup (``inflight_ttl``),
reliability (``max_retries`` / ``cooldown_seconds``) and scheduling
(``overlap_enabled``).  The retry backoff shape, the cooldown's
availability threshold and the streaming-ingestion chunk are constants
of :mod:`repro.transport.dispatcher`.  The defaults are a reasonable
portal posture; ``TransportConfig.parity()`` builds the degenerate
configuration under which the dispatcher is bit-identical to a direct
``SensorNetwork.probe`` call (no retries, no overlap, no tables) — the
property tests pin that contract.  It is what a portal or tree built
without a transport config runs: there is no probe path around the
dispatcher.
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
        attempt fails, each after an exponential, jittered backoff.
        0 disables retrying.
    inflight_ttl:
        Freshness window (seconds) of the recently-probed table: a
        sensor resolved less than ``inflight_ttl`` ago is not contacted
        again — a cached success is served (subject to the requester's
        staleness bound), a cached failure is reported without traffic.
        0 disables the table.
    cooldown_seconds:
        After a logical probe fails and the sensor's historical
        availability estimate is below the dispatcher's cooldown
        threshold, further requests are skipped for this long.
        0 disables cooldown.
    overlap_enabled:
        When True, all probe rounds submitted to the dispatcher share
        one simulated-time event queue and one pool of
        ``network.parallelism`` connections, so multiple trees' rounds
        overlap in simulated wall time.  When False each round runs to
        completion by itself, exactly like a synchronous ``probe`` call.
    seed:
        Seed of the dispatcher's private RNG (backoff jitter only).
    """

    max_retries: int = 2
    inflight_ttl: float = 60.0
    cooldown_seconds: float = 300.0
    overlap_enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.inflight_ttl < 0:
            raise ValueError("inflight_ttl must be non-negative")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")

    @classmethod
    def parity(cls) -> "TransportConfig":
        """The degenerate configuration under which the dispatcher is
        provably bit-identical to direct ``network.probe`` calls: no
        retries, no overlap, no dedup or cooldown tables."""
        return cls(
            max_retries=0,
            overlap_enabled=False,
            inflight_ttl=0.0,
            cooldown_seconds=0.0,
        )
