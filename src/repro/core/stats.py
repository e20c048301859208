"""Instrumentation.

The paper's evaluation is driven by internal statistics (Figure 3's
node-traversal counts, Figure 4's probe counts and processing latency).
Every query records a :class:`QueryStats`; a batch tick's totals are
the sum of its answers' records (:meth:`QueryStats.merge`).  Processing
latency is *derived* from the work counters through
:class:`ProcessingCostModel` so that runs are deterministic and the
latency axes of Figures 4 and 5 can be reproduced without depending on
host speed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class QueryStats:
    """Work performed by a single query."""

    nodes_traversed: int = 0
    cached_nodes_accessed: int = 0
    slots_combined: int = 0
    readings_scanned: int = 0
    sensors_probed: int = 0
    probe_successes: int = 0
    probe_batches: int = 0
    maintenance_ops: int = 0
    collection_latency_seconds: float = 0.0
    # Flattened-kernel instrumentation.  These meter the spatial plan
    # cache, and deliberately do not feed the cost model: the kernel
    # changes *how fast* traversal runs, never *what work* the query
    # logically performs, so the modeled latency counters above stay
    # comparable across kernel on/off runs.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    # Batch-executor instrumentation (same contract as the kernel
    # counters above: purely observational, never fed to the cost model).
    # ``probes_coalesced`` counts probe requests this query did not have
    # to issue because a peer in the same batch already contacted the
    # sensor; ``batch_shared_nodes`` counts node classifications this
    # query inherited from a batch peer's spatial plan.
    probes_coalesced: int = 0
    batch_shared_nodes: int = 0
    # Transport-dispatcher instrumentation (observational, like the two
    # groups above — the dispatcher changes how probes are *delivered*,
    # not the logical work a query performs).  ``probes_retried`` counts
    # extra wire contacts within this query's logical probes,
    # ``probes_timed_out`` the attempts abandoned at the collector
    # timeout, ``probes_deduped`` requests served from the in-flight /
    # recently-probed table without network traffic, and
    # ``probes_cooldown_skipped`` requests dropped because the sensor was
    # in failure cooldown.
    probes_retried: int = 0
    probes_timed_out: int = 0
    probes_deduped: int = 0
    probes_cooldown_skipped: int = 0
    # Sampling-guarantee instrumentation (observational): the
    # federation's cross-shard REDISTRIBUTE reads
    # ``pool_exhausted_terminals``, the terminals whose in-region sensor
    # pool could not cover the rounded probe request — the *genuine*
    # shortfall signal of Algorithm 2, as opposed to rounding noise.
    pool_exhausted_terminals: int = 0

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another stats record into this one."""
        mine, theirs = self.__dict__, other.__dict__
        for name in QUERY_STATS_FIELDS:
            mine[name] += theirs[name]


# Every counter by name, computed once.
QUERY_STATS_FIELDS = tuple(f.name for f in fields(QueryStats))


@dataclass(frozen=True, slots=True)
class ProcessingCostModel:
    """Converts work counters into a deterministic processing latency.

    The constants approximate the relative costs the paper's SQL Server
    implementation exhibits: node traversal is a join step, combining a
    cached slot is cheap, scanning a raw reading is cheaper still, and
    cache maintenance (trigger work) costs about as much as a traversal
    step.  Absolute values are calibrated so a typical cached COLR-Tree
    query lands in the tens of milliseconds, matching Figure 4iv's
    ≈40 ms observation.
    """

    per_node_traversal: float = 200e-6
    per_slot_combined: float = 20e-6
    per_reading_scanned: float = 4e-6
    per_maintenance_op: float = 40e-6
    per_probe_dispatch: float = 30e-6

    def processing_seconds(self, stats: QueryStats) -> float:
        """Simulated server-side processing latency of one query."""
        return (
            stats.nodes_traversed * self.per_node_traversal
            + stats.slots_combined * self.per_slot_combined
            + stats.readings_scanned * self.per_reading_scanned
            + stats.maintenance_ops * self.per_maintenance_op
            + stats.sensors_probed * self.per_probe_dispatch
        )
