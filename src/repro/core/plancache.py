"""The spatial plan cache.

A portal's map viewports repeat heavily — panning back, zoom toggles,
dashboards polling a fixed region — and the spatial half of a query
plan (which nodes are disjoint / partial / contained, which sensors of
a partial leaf are inside the region, the overlap share weights) is a
pure function of (region, tree structure).  Since the structure is
frozen at bulk load, those results are valid *indefinitely* and can be
memoized: only the temporal side (slot-cache usability, freshness)
must be re-evaluated per query.

``SpatialPlanCache`` is a small LRU keyed by ``(region fingerprint,
terminal_level)`` holding :class:`SpatialPlan` entries.  A plan carries
the node classification eagerly and materializes the more expensive
derived artifacts (overlap fractions, per-leaf membership, the fully
vectorized empty-cache scan) lazily on first use, so a plan only ever
pays for what its queries actually touch.
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


@dataclass
class SpatialPlan:
    """Memoized spatial artifacts of one (region, tree) pair."""

    labels: np.ndarray
    n_disjoint: int
    _labels_list: list[int] | None = field(default=None, repr=False)
    _overlaps: np.ndarray | None = field(default=None, repr=False)
    _overlaps_list: list[float] | None = field(default=None, repr=False)
    _leaf_matching: dict[int, list["Sensor"]] = field(default_factory=dict, repr=False)
    _empty_scan: Any = field(default=None, repr=False)
    _relevant_count: int | None = field(default=None, repr=False)

    @property
    def labels_list(self) -> list[int]:
        """Labels as a plain list: Python-list scalar indexing is several
        times cheaper than numpy scalar indexing in the per-node loops."""
        if self._labels_list is None:
            self._labels_list = self.labels.tolist()
        return self._labels_list

    def overlaps(self, kernel: FlatKernel, region: "Region") -> list[float]:
        """Per-node ``Overlap(BB(i), A)``, vectorized then memoized."""
        if self._overlaps_list is None:
            self._overlaps = kernel.overlap_fractions(region)
            self._overlaps_list = self._overlaps.tolist()
        return self._overlaps_list

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
