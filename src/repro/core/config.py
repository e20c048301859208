"""Configuration of a COLR-Tree instance.

One dataclass holds every tunable so experiments can sweep parameters
(slot size for Figure 2, cache limit for Figures 5/6) and so the
evaluation's baseline configurations — plain R-tree
(``caching_enabled=False, sampling_enabled=False``) and hierarchical
cache (``sampling_enabled=False``) — are just configs of the same code.
The sample size is a query's own ``SAMPLESIZE`` clause; a query
without one gets :data:`DEFAULT_SAMPLE_SIZE`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# ``R`` for a query that carries no ``SAMPLESIZE`` clause.
DEFAULT_SAMPLE_SIZE = 30


@dataclass(frozen=True, slots=True)
class COLRTreeConfig:
    """All tunables of a COLR-Tree.

    Levels are counted from the root: the root is level 0 (footnote 3 of
    the paper) and levels grow downward.

    Parameters
    ----------
    fanout:
        Target number of children per internal node (the ``k`` of the
        k-means clustering used during bulk build).
    leaf_capacity:
        Maximum sensors per leaf node.
    max_expiry_seconds:
        ``t_max`` — the maximum expiry duration any sensor publishes.
        The slot window must cover it.
    slot_seconds:
        ``Δ`` — the slot size.  ``m = ceil(t_max / Δ)`` slots are kept.
        Section IV-C's model picks the workload-optimal value.
    terminal_level:
        ``T`` — descent along a path terminates (and aggregates /
        samples are produced) only below this level; it corresponds to
        the map zoom level.
    oversample_level:
        ``O`` — the level at which the ``1/a`` availability scale-up is
        applied to still-descending paths.  Must be >= ``terminal_level``
        so the scale-up happens exactly once per root-to-probe path.
    caching_enabled:
        When false, slot caches are neither consulted nor populated
        (plain R-tree behaviour).
    aggregate_caching_enabled:
        Ablation switch: when false, only leaves cache (raw readings);
        internal nodes keep no aggregates.  Isolates the benefit of the
        slot-cache *tree* over plain reading caching.
    sampling_enabled:
        When false, range lookups probe every relevant sensor instead of
        running layered sampling.
    cache_capacity:
        Maximum number of raw readings cached across all leaves, or
        ``None`` for unlimited.  Figure 5 sweeps this as a fraction of
        the sensor population.
    oversampling_enabled / redistribution_enabled:
        Ablation switches for the two robustness mechanisms of
        Algorithm 1 (on by default; Section V).
    reversible_aggregates:
        The paper's flagged future-work extension (Section VII-D):
        when a terminal's cached aggregate holds far more sensors than
        the sampling target, decompose it into the descendants' cached
        components and consume only enough of them to approach the
        target, reducing the cache-induced spatial bias (probe
        discretization error).  Off by default to match the paper's
        evaluated system.
    plan_cache_size:
        Maximum number of spatial plans — vectorized node
        classifications (:mod:`repro.core.flat`) memoized by region
        fingerprint and terminal level in :mod:`repro.core.plancache` —
        kept per tree (LRU evicted).  Plans stay valid for the tree's
        lifetime because the spatial structure is immutable after bulk
        load; only temporal/slot-cache state is per-query.  A plan
        costs ~1 B a tree node plus ~70 B a node its region's box
        meets, plus its memos (2.8 kB for an e2e ``sampled`` viewport),
        so 256 plans are ~0.7 MB a tree for viewport-sized regions and
        at most 256 x (~70 B x nodes + memos); docs/architecture.md §4.
    seed:
        Seed for the index's own RNG (random sensor selection and
        randomized rounding of fractional targets).
    """

    fanout: int = 8
    leaf_capacity: int = 32
    max_expiry_seconds: float = 600.0
    slot_seconds: float = 120.0
    terminal_level: int = 2
    oversample_level: int = 4
    caching_enabled: bool = True
    aggregate_caching_enabled: bool = True
    sampling_enabled: bool = True
    cache_capacity: int | None = None
    oversampling_enabled: bool = True
    redistribution_enabled: bool = True
    reversible_aggregates: bool = False
    plan_cache_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise ValueError("fanout must be at least 2")
        if self.leaf_capacity < 1:
            raise ValueError("leaf_capacity must be at least 1")
        if self.max_expiry_seconds <= 0:
            raise ValueError("max_expiry_seconds must be positive")
        if not 0 < self.slot_seconds <= self.max_expiry_seconds:
            raise ValueError("slot_seconds must be in (0, max_expiry_seconds]")
        if self.terminal_level < 0:
            raise ValueError("terminal_level must be non-negative")
        if self.oversample_level < self.terminal_level:
            raise ValueError(
                "oversample_level must be at or below terminal_level "
                "(>= terminal_level numerically) so each path is scaled once"
            )
        if self.cache_capacity is not None and self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative or None")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be at least 1")

    @property
    def n_slots(self) -> int:
        """``m = ceil(t_max / Δ)`` — slots needed to cover every expiry."""
        full = int(self.max_expiry_seconds // self.slot_seconds)
        return full if full * self.slot_seconds >= self.max_expiry_seconds else full + 1

    # ------------------------------------------------------------------
    # Derived baseline configurations (Section VII's comparison systems)
    # ------------------------------------------------------------------
    def as_plain_rtree(self) -> "COLRTreeConfig":
        """The evaluation's "regular R-Tree": no caching, no sampling."""
        return replace(self, caching_enabled=False, sampling_enabled=False)

    def as_hierarchical_cache(self) -> "COLRTreeConfig":
        """The evaluation's "hierarchical cache": slot caches plus a
        standard R-tree range query (no sampling)."""
        return replace(self, caching_enabled=True, sampling_enabled=False)

    def with_slot_seconds(self, slot_seconds: float) -> "COLRTreeConfig":
        """A copy with a different slot size (Figure 2 sweeps)."""
        return replace(self, slot_seconds=slot_seconds)

    def with_cache_capacity(self, cache_capacity: int | None) -> "COLRTreeConfig":
        """A copy with a different cache limit (Figure 5/6 sweeps)."""
        return replace(self, cache_capacity=cache_capacity)
