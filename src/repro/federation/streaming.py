"""Streaming (pipelined) gather results.

A synchronous gather waits for the slowest shard; a streaming gather
merges per-shard answers *as they land* in modeled time and can publish
a partial-but-monotone answer at a deadline while stragglers and
top-ups are still in flight.  It is the coordinator's one gather run
on a plan with a deadline (``FederatedPortal._gather``), so it reaches
the shards through the same scatter on either backend.

A shard's answer lands at the slot it occupies in the synchronous
makespan (collection latency plus any retry or recovery penalty), so
on a healthy fleet ``final`` is bit-identical to the synchronous gather
(``tests/frontdoor/test_parity.py``).  ``first`` merges every shard
landed by the deadline and lists the healthy ones still in flight in
``FederatedResult.deferred_shards`` (late, never dropped).  ``final``
launches top-ups once every *answering* shard has landed, so a degraded
fleet's collection is ``max(round-1 makespan, launch + top-up)``, not
their sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.federated import FederatedResult
    from repro.portal.query import SensorQuery

__all__ = ["ShardArrival", "StreamingGather"]


@dataclass(frozen=True, slots=True)
class ShardArrival:
    """One shard's round-1 outcome in the streaming timeline.

    ``landed_at`` is modeled seconds after the scatter: for an answering
    shard, its collection latency plus retry penalties; for a failed
    shard, the instant its failure became known (retry backoff
    exhausted).
    """

    shard_id: int
    landed_at: float
    status: str  # "ok" | "failed"


@dataclass
class StreamingGather:
    """What one streamed scatter-gather produced.

    ``arrivals`` is the full round-1 timeline in landing order;
    ``first`` the answer published at the deadline (== ``final`` when
    everything landed in time, or when no deadline was given); ``final``
    the complete merge.  ``first``'s readings are always a subset of
    ``final``'s — late answers only ever add.
    """

    query: "SensorQuery"
    deadline_seconds: float | None
    arrivals: tuple[ShardArrival, ...]
    first: "FederatedResult"
    final: "FederatedResult"
