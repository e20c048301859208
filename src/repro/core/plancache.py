"""The spatial plan cache.

A portal's map viewports repeat heavily — panning back, zoom toggles,
dashboards polling a fixed region — and the spatial half of a query
plan (which nodes are disjoint / partial / contained, which sensors of
a partial leaf are inside the region, the overlap share weights) is a
pure function of (region, tree structure).  Since the structure is
frozen at bulk load, those results are valid *indefinitely* and can be
memoized: only the temporal side (slot-cache usability, freshness)
must be re-evaluated per query.

``SpatialPlanCache`` is a small LRU keyed by the region fingerprint
holding :class:`SpatialPlan` entries — nothing in a plan depends on the
query's access path or terminal level, so an exact and a sampled
query over one region share one entry.  A plan carries
the node classification eagerly and materializes the more expensive
derived artifacts (overlap fractions, per-leaf membership, the fully
vectorized empty-cache scan) lazily on first use, so a plan only ever
pays for what its queries actually touch.

A plan costs what it holds.  Its labels are one byte per node
(``bytes``: indexing yields the same small ints a list does, ~10 ns
slower a read), and its overlap fractions are kept only where they are
non-zero — most of a tree is disjoint from a viewport.  So a cached
plan grows with the nodes its region's box meets and the leaves its
queries crossed, not with the tree: 2.8 kB for a plan of the e2e
``sampled`` workload (1,500-sensor shards), against 11.2 kB when it
also held its labels and its overlaps as per-node lists.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

import numpy as np

from repro.core.flat import FlatKernel
from repro.geometry import Polygon, Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.lookup import Region
    from repro.sensors.sensor import Sensor


def region_fingerprint(region: "Region") -> Hashable | None:
    """A hashable identity for a query region, or ``None`` when the
    region type offers no stable fingerprint (then plans are not
    cached — correctness never depends on the cache)."""
    if isinstance(region, Rect):
        return ("rect", region.min_x, region.min_y, region.max_x, region.max_y)
    if isinstance(region, Polygon):
        return ("poly", tuple((v.x, v.y) for v in region.vertices))
    return None


@dataclass(slots=True)
class SpatialPlan:
    """Memoized spatial artifacts of one (region, tree) pair."""

    # One DISJOINT / PARTIAL / CONTAINED label per node, preorder.
    labels: bytes
    # Non-zero overlap fractions by node index: read ``.get(i, 0.0)``.
    _overlaps: dict[int, float] | None = field(default=None, repr=False)
    _leaf_matching: dict[int, list["Sensor"]] = field(default_factory=dict, repr=False)
    _empty_scan: Any = field(default=None, repr=False)

    @classmethod
    def of(cls, labels: np.ndarray) -> "SpatialPlan":
        """The plan of a classification (``FlatKernel.classify``)."""
        return cls(labels=labels.tobytes())

    def label_array(self) -> np.ndarray:
        """The labels as a read-only ``int8`` array view, for the
        vectorized scans."""
        return np.frombuffer(self.labels, dtype=np.int8)

    def overlaps(self, kernel: FlatKernel, region: "Region") -> dict[int, float]:
        """Per-node ``Overlap(BB(i), A)``, vectorized once, then kept
        for the nodes where it is non-zero: every node missing from the
        mapping has an overlap of ``0.0``."""
        if self._overlaps is None:
            fractions = kernel.overlap_fractions(region)
            nonzero = np.flatnonzero(fractions)
            self._overlaps = dict(zip(nonzero.tolist(), fractions[nonzero].tolist()))
        return self._overlaps

    def leaf_matching(
        self, kernel: FlatKernel, i: int, region: "Region"
    ) -> list["Sensor"]:
        """In-region sensors of (partial) leaf ``i``, memoized."""
        got = self._leaf_matching.get(i)
        if got is None:
            got = kernel.leaf_matching(i, region)
            self._leaf_matching[i] = got
        return got


class SpatialPlanCache:
    """LRU cache of :class:`SpatialPlan` entries.

    Entries never expire on their own: the spatial structure they
    describe is immutable after bulk load, so only capacity evicts.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, SpatialPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> SpatialPlan | None:
        plan = self._entries.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: Hashable, plan: SpatialPlan) -> None:
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
