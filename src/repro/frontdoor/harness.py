"""Open-loop serving harness over the simulated clock.

An *open-loop* workload (arrivals keep coming whether or not the server
keeps up — a million browsers do not politely wait for each other)
against one :class:`~repro.frontdoor.frontdoor.FrontDoor`, entirely in
modeled time:

* arrivals are admitted or shed **at arrival** (token buckets + the
  live queue depth);
* the single modeled server drains the admitted queue in batches of up
  to ``max_batch`` (one tick's worth of viewports share the portal's
  batched traversals, exactly like the continuous-query manager);
* a request's latency is ``finish - arrival`` — queueing delay
  included, which is what makes saturation visible: past the
  sustainable rate, the queue (not the service time) is the latency.

The clock is advanced to each batch's start instant, so slot windows
advance and staleness bounds age exactly as they would live — a long
run genuinely expires cache entries mid-flight.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.bench.report import StreamSummary
from repro.frontdoor.frontdoor import FrontDoor

__all__ = ["OpenLoopReport", "OpenLoopRunner", "ServedRecord"]


@dataclass(frozen=True, slots=True)
class ServedRecord:
    """One request's lifecycle in the run (times relative to run
    start).  Shed requests have ``start == finish == arrival`` and a
    non-``served`` status."""

    tenant: int
    arrival_seconds: float
    start_seconds: float
    finish_seconds: float
    status: str
    served_from: str | None = None

    @property
    def latency_seconds(self) -> float:
        return self.finish_seconds - self.arrival_seconds


@dataclass
class OpenLoopReport:
    records: list[ServedRecord] = field(default_factory=list)
    max_queue_depth: int = 0

    @property
    def offered(self) -> int:
        return len(self.records)

    @property
    def served(self) -> int:
        return sum(1 for r in self.records if r.status == "served")

    @property
    def shed(self) -> int:
        return self.offered - self.served

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def duration_seconds(self) -> float:
        return max((r.finish_seconds for r in self.records), default=0.0)

    @property
    def served_qps(self) -> float:
        span = self.duration_seconds
        return self.served / span if span > 0 else 0.0

    def latency(self) -> StreamSummary:
        """Latency distribution of the *served* requests only; shedding
        is metered separately, never hidden inside the percentiles."""
        return StreamSummary(
            r.latency_seconds for r in self.records if r.status == "served"
        )

    def hits(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            if r.served_from is not None:
                out[r.served_from] = out.get(r.served_from, 0) + 1
        return out

    def as_dict(self) -> dict[str, object]:
        latency = self.latency()
        return {
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "shed_fraction": self.shed_fraction,
            "served_qps": self.served_qps,
            "duration_seconds": self.duration_seconds,
            "max_queue_depth": self.max_queue_depth,
            "served_from": self.hits(),
            "latency": latency.as_dict() if latency.count else None,
        }


class OpenLoopRunner:
    """Drives one front door with an open-loop arrival stream."""

    def __init__(self, frontdoor: FrontDoor, max_batch: int = 8) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.frontdoor = frontdoor
        self.max_batch = max_batch

    def run(self, requests) -> OpenLoopReport:
        """Serve ``requests`` (anything with ``tenant``,
        ``arrival_seconds`` — relative to run start — and ``query``).
        Arrivals are processed in arrival order; the report's records
        keep that order for served and shed alike."""
        reqs = sorted(requests, key=lambda r: r.arrival_seconds)
        clock = self.frontdoor.portal.clock
        t0 = clock.now()
        queue: deque = deque()
        report = OpenLoopReport()
        server_free = 0.0

        def serve_until(limit: float) -> None:
            nonlocal server_free
            while queue:
                start = max(server_free, queue[0].arrival_seconds)
                if start > limit:
                    return
                batch = []
                while (
                    queue
                    and len(batch) < self.max_batch
                    and queue[0].arrival_seconds <= start
                ):
                    batch.append(queue.popleft())
                target = t0 + start
                now = clock.now()
                if target > now:
                    clock.advance(target - now)
                outcome = self.frontdoor.execute_batch([r.query for r in batch])
                finish = start + outcome.service_seconds
                for req, res in zip(batch, outcome.results):
                    report.records.append(
                        ServedRecord(
                            tenant=req.tenant,
                            arrival_seconds=req.arrival_seconds,
                            start_seconds=start,
                            finish_seconds=finish,
                            status="served",
                            served_from=res.served_from,
                        )
                    )
                server_free = finish

        for req in reqs:
            serve_until(req.arrival_seconds)
            verdict = self.frontdoor.admission.offer(
                req.tenant, t0 + req.arrival_seconds, len(queue)
            )
            if verdict == "admit":
                queue.append(req)
                report.max_queue_depth = max(report.max_queue_depth, len(queue))
            else:
                report.records.append(
                    ServedRecord(
                        tenant=req.tenant,
                        arrival_seconds=req.arrival_seconds,
                        start_seconds=req.arrival_seconds,
                        finish_seconds=req.arrival_seconds,
                        status=verdict,
                    )
                )
        serve_until(math.inf)
        report.records.sort(key=lambda r: (r.arrival_seconds, r.tenant))
        return report
