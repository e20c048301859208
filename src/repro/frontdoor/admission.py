"""Admission control: per-tenant token buckets + a bounded queue.

A million-user portal cannot let demand stretch latency without bound.
Two guards run at arrival, in order:

1. the **queue guard** — if the serving backlog has already reached
   ``queue_depth``, the request is shed immediately (``shed_queue``);
   queueing it would only add its service time to everyone behind it;
2. the **tenant token bucket** — each tenant accrues
   ``tenant_rate_qps`` tokens per second up to ``tenant_burst``; a
   request with no token is shed (``shed_rate``), so one scripted
   tenant cannot crowd out the interactive rest.

Every decision is metered: ``offered == admitted + shed_rate +
shed_queue`` holds exactly at all times.  Shedding is loud, never
silent — the bench gates on the accounting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.frontdoor.config import AdmissionConfig

__all__ = ["AdmissionController", "AdmissionStats", "TokenBucket"]


@dataclass
class TokenBucket:
    """A standard token bucket over the simulated clock."""

    rate_qps: float
    burst: float
    tokens: float = field(default=-1.0)
    last_refill: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.tokens < 0:
            self.tokens = self.burst  # start full: a fresh tenant gets its burst

    def try_take(self, now: float) -> bool:
        if self.last_refill < 0:
            self.last_refill = now
        elif now > self.last_refill:
            self.tokens = min(
                self.burst, self.tokens + (now - self.last_refill) * self.rate_qps
            )
            self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionStats:
    offered: int = 0
    admitted: int = 0
    shed_rate: int = 0
    shed_queue: int = 0

    @property
    def shed(self) -> int:
        return self.shed_rate + self.shed_queue

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def as_dict(self) -> dict[str, object]:
        """Every counter by field name, plus the derived ``shed_fraction``."""
        return {**asdict(self), "shed_fraction": self.shed_fraction}


class AdmissionController:
    """Decides admit / shed at request arrival."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.stats = AdmissionStats()
        self._buckets: dict[object, TokenBucket] = {}

    def offer(self, tenant: object, now: float, queue_depth: int) -> str:
        """One arriving request.  Returns ``"admit"``, ``"shed_queue"``
        (backlog full), or ``"shed_rate"`` (tenant out of tokens).

        The queue guard runs first: when the server is saturated the
        verdict should say so, whatever the tenant's bucket holds.
        """
        self.stats.offered += 1
        if not self.config.enabled:
            self.stats.admitted += 1
            return "admit"
        if queue_depth >= self.config.queue_depth:
            self.stats.shed_queue += 1
            return "shed_queue"
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                rate_qps=self.config.tenant_rate_qps, burst=self.config.tenant_burst
            )
            self._buckets[tenant] = bucket
        if not bucket.try_take(now):
            self.stats.shed_rate += 1
            return "shed_rate"
        self.stats.admitted += 1
        return "admit"
