"""Front-door configuration: result-cache tiers and admission control.

One frozen dataclass per concern, mirroring ``FederationConfig`` /
``TransportConfig`` style so the bench and CLI can sweep knobs without
touching code.  The tile grid, the L2 capacity and cover bound
(:mod:`repro.frontdoor.cache`) and the modeled hit costs
(:mod:`repro.frontdoor.frontdoor`) are module constants: no workload
turns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AdmissionConfig", "FrontDoorConfig"]


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Admission control in front of the portal.

    Two independent guards, both metered, neither silent:

    * **per-tenant token buckets** bound each tenant's sustained rate
      (``tenant_rate_qps``) with a burst allowance (``tenant_burst``) —
      one hot tenant cannot starve the rest;
    * a **bounded queue** (``queue_depth``) bounds the backlog the
      serving loop will accept — once the portal is saturated, excess
      load is shed at arrival instead of stretching every queued
      request's latency.

    ``enabled=False`` admits everything (the open-loop bench's
    no-admission baseline).
    """

    enabled: bool = True
    tenant_rate_qps: float = 5.0
    tenant_burst: float = 10.0
    queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.tenant_rate_qps <= 0:
            raise ValueError("tenant_rate_qps must be positive")
        if self.tenant_burst < 1:
            raise ValueError("tenant_burst must be at least 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")


@dataclass(frozen=True, slots=True)
class FrontDoorConfig:
    """Knobs of the tiered result cache and the serving path.

    Parameters
    ----------
    l1_capacity:
        Maximum exact-viewport entries in the L1 LRU (0 disables L1).
    l2_enabled:
        The L2 tile cache: the world is quantized into square tiles of
        :data:`~repro.frontdoor.cache.TILE_EXTENT_DEGREES` per side;
        exact rectangular viewports are answered by composing the
        covering tile answers (CDN-style).  Only exact, ungrouped
        queries are tile-composable — sampled answers are RNG draws and
        zoom/cluster grouping is not reconstructible from tiles — and
        only on portals without a collection cap (the cap would demote
        per-tile sub-queries to sampling).
    admission:
        See :class:`AdmissionConfig`.
    """

    l1_capacity: int = 512
    l2_enabled: bool = True
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self) -> None:
        if self.l1_capacity < 0:
            raise ValueError("l1_capacity must be non-negative")
