"""Federation-layer configuration.

The knobs cover how many times the coordinator retries a shard that did
not answer (``shard_retry_budget``; the backoff between attempts is
:data:`repro.federation.federated.RETRY_BACKOFF_BASE` times
:data:`~repro.federation.federated.RETRY_BACKOFF_MULTIPLIER` per further
attempt, the same exponential shape as the probe transport's), the
cross-shard top-up rounds and which backend runs the shards.  A shard
that stays silent past its budget marks the merged answer *partial*
rather than raising; the gather waits for every shard that answers.
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
        (the shard is down / unreachable).  0 disables retrying.  Each
        retry's backoff is charged to the failed shard's slot of the
        gather makespan.
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
    redistribution_rounds: int = 1
    execution: str = "inprocess"

    def __post_init__(self) -> None:
        if self.execution not in ("inprocess", "process"):
            raise ValueError('execution must be "inprocess" or "process"')
        if self.shard_retry_budget < 0:
            raise ValueError("shard_retry_budget must be non-negative")
        if self.redistribution_rounds < 0:
            raise ValueError("redistribution_rounds must be non-negative")
