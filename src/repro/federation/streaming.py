"""Streaming (pipelined) gather results.

A synchronous gather waits for the slowest shard before the coordinator
can answer; a streaming gather merges per-shard answers *as they land*
in modeled time and can publish a partial-but-monotone answer at a
freshness deadline while stragglers (and redistribution top-ups) are
still in flight.

The landing time of a shard's answer is exactly the slot it occupies in
the synchronous gather makespan — its sub-answer's collection latency
plus any retry or recovery penalty the coordinator charged it — so the
*final* streamed result is bit-identical to the synchronous gather on a
healthy fleet (pinned by ``tests/frontdoor/test_parity.py``).  What
streaming changes is *when* answers become publishable:

* ``first`` is the answer publishable at ``deadline_seconds``: the
  merge of every shard that landed by then.  Healthy shards still in
  flight are listed in ``FederatedResult.deferred_shards`` (the answer
  is flagged partial), never dropped — the continuous-query manager
  applies ``first`` and the next tick's full answer supersedes it.
* ``final`` is the complete merge, with redistribution rounds
  *overlapped* with the tail of round-1 collection: top-up scatters
  launch once every answering shard has landed instead of waiting out a
  straggler's retry backoff, so a degraded fleet's final collection is
  ``max(round-1 makespan, topup launch + topup collection)`` rather
  than their sum.

Works identically on both federation backends — the streaming path is
a publish-time policy over the coordinator's one scatter → retry →
gather spine (``_scatter_queries`` for a batch of one, then
``_finish``), which reaches the shards only through its backend's
``attempt`` / ``call``.
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
