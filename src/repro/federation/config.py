"""Federation-layer configuration.

The knobs cover the coordinator's two failure-handling jobs — retrying a
shard that did not answer (``shard_retry_budget`` / ``retry_backoff_*``,
the same exponential-backoff shape as
:class:`~repro.transport.config.TransportConfig`) and bounding how long
the gather waits for a slow shard (``shard_timeout_seconds``).  The
defaults retry once and never time a shard out, which keeps a healthy
federation's answers complete; both degradation paths mark the merged
answer *partial* rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FederationConfig:
    """Knobs for the scatter-gather coordinator.

    Parameters
    ----------
    shard_retry_budget:
        Extra attempts per shard per scatter after the first one fails
        (the shard is down / unreachable).  0 disables retrying.
    retry_backoff_base:
        Simulated seconds charged to the gather before the first retry
        of a shard; retry ``k`` waits
        ``retry_backoff_base * retry_backoff_multiplier**k``.  The
        charge lands on the failed shard's slot of the gather makespan.
    retry_backoff_multiplier:
        Exponential growth factor of the retry delay.
    shard_timeout_seconds:
        Gather deadline per shard: a shard whose sub-answer's simulated
        collection latency exceeds this is dropped from the merge (its
        slot is charged the timeout) and the answer is flagged partial.
        ``None`` waits forever.
    cooldown_seconds:
        After a shard exhausts its retry budget, the coordinator stops
        scattering to it for this long (simulated seconds); queries
        touching its region come back partial without paying the retry
        backoff again.  0 disables shard cooldown.
    redistribution_rounds:
        Coordinator-level REDISTRIBUTE (Algorithm 2 one level up): when
        a sampled scatter's first gather comes up short of the federated
        target, the aggregate shortfall is re-split over shards with
        remaining pool and collected in up to this many bounded top-up
        scatter rounds per query.  Each round's collection cost is
        charged to the gather makespan; rounds stop early once the
        shortfall closes, no candidate shard has residual pool, or a
        round gains nothing.  Only applies when more than one shard was
        routed — a single routed shard already ran Algorithm 2 over its
        whole pool, so there is nothing to borrow and the 1-shard
        pass-through stays bit-identical to the unsharded portal.
        0 switches the whole stage off.
    execution:
        Which backend runs the shards.  ``"inprocess"`` (the default)
        keeps every shard a ``SensorMapPortal`` inside the
        coordinator's process — fully deterministic, zero IPC.
        ``"process"`` runs each shard in its own worker process
        (:class:`repro.parallel.ProcessBackend`): the coordinator holds
        sockets and pids only, each worker builds its shard from the
        same ``ShardSpec``, and only query descriptors / answers cross
        the worker pipes, so shard work genuinely overlaps on the wall
        clock.  Answers are bit-identical across backends for the same
        seed.  This field is the only backend selector.
    """

    shard_retry_budget: int = 1
    retry_backoff_base: float = 0.5
    retry_backoff_multiplier: float = 2.0
    shard_timeout_seconds: float | None = None
    cooldown_seconds: float = 0.0
    redistribution_rounds: int = 1
    execution: str = "inprocess"

    def __post_init__(self) -> None:
        if self.execution not in ("inprocess", "process"):
            raise ValueError('execution must be "inprocess" or "process"')
        if self.shard_retry_budget < 0:
            raise ValueError("shard_retry_budget must be non-negative")
        if self.retry_backoff_base < 0:
            raise ValueError("retry_backoff_base must be non-negative")
        if self.retry_backoff_multiplier < 1.0:
            raise ValueError("retry_backoff_multiplier must be at least 1")
        if self.shard_timeout_seconds is not None and self.shard_timeout_seconds <= 0:
            raise ValueError("shard_timeout_seconds must be positive or None")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        if self.redistribution_rounds < 0:
            raise ValueError("redistribution_rounds must be non-negative")
