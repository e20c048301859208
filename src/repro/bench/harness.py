"""Run a query stream against a system under test and meter everything.

All four evaluated systems — flat cache, plain R-tree, hierarchical
cache, full COLR-Tree (and the relational implementation) — expose the
same ``query(region, now, max_staleness, sample_size)`` →
:class:`~repro.core.lookup.QueryAnswer` surface, so one harness drives
every experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from repro.core.lookup import QueryAnswer, Region
from repro.core.stats import ProcessingCostModel, QueryStats
from repro.workloads.livelocal import QuerySpec


class StreamSummary:
    """Order statistics over one metered series (latencies, errors...).

    Every bench that reports a latency distribution goes through this
    instead of ad-hoc ``np.percentile`` calls, so p50/p95/p99 mean the
    same thing in every ``BENCH_*.json``: linear interpolation between
    closest ranks (numpy's default), computed over the full retained
    series — these benches meter thousands of queries, not billions, so
    an exact summary is cheaper than a sketch would be.
    """

    __slots__ = ("_sorted",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._sorted = sorted(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def mean(self) -> float:
        if not self._sorted:
            raise ValueError("no observations")
        return sum(self._sorted) / len(self._sorted)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), linearly interpolated
        between closest ranks — value-identical to
        ``numpy.percentile(values, p)`` for finite inputs."""
        if not self._sorted:
            raise ValueError("no observations")
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        xs = self._sorted
        rank = (p / 100.0) * (len(xs) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return xs[int(rank)]
        frac = rank - lo
        return xs[lo] + frac * (xs[hi] - xs[lo])

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def as_dict(self) -> dict[str, float | int]:
        """The JSON-artifact shape every bench embeds."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class SystemUnderTest(Protocol):
    """What the harness needs from an evaluated system."""

    def query(
        self,
        region: Region,
        now: float,
        max_staleness: float,
        sample_size: int | None = None,
    ) -> QueryAnswer: ...

    def processing_seconds(self, stats: QueryStats) -> float: ...


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """Per-query metering."""

    at_time: float
    sensors_probed: int
    probe_successes: int
    nodes_traversed: int
    cached_nodes_accessed: int
    maintenance_ops: int
    readings_scanned: int
    result_weight: int
    processing_seconds: float
    collection_seconds: float
    target_size: int
    terminal_count: int
    terminal_pde: float


@dataclass
class RunResult:
    """A full stream run."""

    records: list[QueryRecord] = field(default_factory=list)

    def mean(self, attribute: str) -> float:
        if not self.records:
            raise ValueError("no records")
        return sum(getattr(r, attribute) for r in self.records) / len(self.records)


def run_query_stream(
    system: SystemUnderTest,
    queries: Sequence[QuerySpec],
    sample_size: int | None = None,
    use_sampling: bool = True,
) -> RunResult:
    """Drive every query through the system in arrival order.

    ``sample_size`` overrides the per-query target when given;
    ``use_sampling=False`` forces exact lookups regardless of targets
    (baselines ignore the target anyway).
    """
    result = RunResult()
    for spec in queries:
        target = sample_size if sample_size is not None else spec.sample_size
        effective = target if use_sampling else 0
        answer = system.query(
            spec.region,
            now=spec.at_time,
            max_staleness=spec.staleness_seconds,
            sample_size=effective,
        )
        stats = answer.stats
        result.records.append(
            QueryRecord(
                at_time=spec.at_time,
                sensors_probed=stats.sensors_probed,
                probe_successes=stats.probe_successes,
                nodes_traversed=stats.nodes_traversed,
                cached_nodes_accessed=stats.cached_nodes_accessed,
                maintenance_ops=stats.maintenance_ops,
                readings_scanned=stats.readings_scanned,
                result_weight=answer.result_weight,
                processing_seconds=system.processing_seconds(stats),
                collection_seconds=stats.collection_latency_seconds,
                target_size=target,
                terminal_count=len(answer.terminals),
                terminal_pde=probe_discretization_error(answer),
            )
        )
    return result


def probe_discretization_error(answer: QueryAnswer) -> float:
    """Figure 6's per-query probe discretization error.

    Mean over terminal access points of ``(target - results) / target``
    — positive when terminals under-deliver, negative when cached
    aggregates over-deliver (the cache-induced spatial bias the paper
    discusses).  Terminals with a zero target are skipped.
    """
    terms = [
        (t.target - t.results) / t.target for t in answer.terminals if t.target > 0
    ]
    if not terms:
        return 0.0
    return sum(terms) / len(terms)


def target_accuracy(
    result_weight: int, target_size: int, unsampled_result_size: int
) -> float:
    """Figure 6's target accuracy for one query:
    ``min(target, achieved) / min(target, unsampled)``, where
    *achieved* counts every sensor represented in the answer (probed or
    cache-served).  1.0 when the region holds no sensors."""
    denom = min(target_size, unsampled_result_size)
    if denom <= 0:
        return 1.0
    return min(target_size, result_weight) / denom
