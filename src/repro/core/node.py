"""Tree nodes.

A ``COLRNode`` is an R-tree node extended with the COLR-Tree extras:
a slot cache (raw readings at leaves, aggregate sketches at internal
nodes), a *weight* (number of descendant sensors — the ``w_i`` of
Algorithm 1), a flat array of descendant sensor ids so terminal nodes
can draw uniform random sensors in O(sample size), and a lazily
refreshed mean-availability estimate (the ``a_i`` of Algorithm 1).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.slots import LeafSlotCache, SlotCache
from repro.geometry import Rect
from repro.sensors.sensor import Sensor


class COLRNode:
    """One node of a COLR-Tree.

    Nodes are created by the bulk loader (:mod:`repro.core.build`); user
    code interacts with :class:`repro.core.tree.COLRTree` instead.
    """

    __slots__ = (
        "node_id",
        "level",
        "bbox",
        "children",
        "sensors",
        "parent",
        "weight",
        "descendant_ids",
        "leaf_cache",
        "agg_cache",
        "availability",
        "availability_refreshed_at",
        "__weakref__",
    )

    def __init__(
        self,
        node_id: int,
        level: int,
        bbox: Rect,
        children: list["COLRNode"] | None = None,
        sensors: list[Sensor] | None = None,
    ) -> None:
        if (children is None) == (sensors is None):
            raise ValueError("a node is either internal (children) or a leaf (sensors)")
        self.node_id = node_id
        self.level = level
        self.bbox = bbox
        self.children: list[COLRNode] = children if children is not None else []
        self.sensors: list[Sensor] = sensors if sensors is not None else []
        self.parent: COLRNode | None = None
        if sensors is not None and not sensors:
            raise ValueError("a leaf must hold at least one sensor")
        if children is not None and not children:
            raise ValueError("an internal node must have at least one child")
        if self.is_leaf:
            self.weight = len(self.sensors)
            self.descendant_ids = np.array(
                sorted(s.sensor_id for s in self.sensors), dtype=np.int64
            )
        else:
            self.weight = sum(c.weight for c in self.children)
            self.descendant_ids = np.concatenate(
                [c.descendant_ids for c in self.children]
            )
            for child in self.children:
                child.parent = self
        # Slot caches are attached by the tree once Δ is known.
        self.leaf_cache: LeafSlotCache | None = None
        self.agg_cache: SlotCache | None = None
        # Mean historical availability of descendant sensors (a_i).
        self.availability: float = 1.0
        self.availability_refreshed_at: float = -np.inf

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_subtree(self) -> Iterator["COLRNode"]:
        """Depth-first iteration over this node and every descendant."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def height(self) -> int:
        """Longest path from this node down to a leaf (leaf height 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(c.height() for c in self.children)

    # ------------------------------------------------------------------
    # Cache attachment
    # ------------------------------------------------------------------
    def attach_caches(self, slot_seconds: float) -> None:
        """Create the node's slot cache (type depends on leaf-ness)."""
        if self.is_leaf:
            self.leaf_cache = LeafSlotCache(slot_seconds)
        else:
            self.agg_cache = SlotCache(slot_seconds)

    def cached_weight(self, now: float, max_staleness: float) -> int:
        """``|c_i|``: the number of descendant sensors whose data is
        usable from this node's cache for a query at ``now``."""
        if self.is_leaf:
            if self.leaf_cache is None:
                return 0
            return len(self.leaf_cache.fresh_sensor_ids(now, max_staleness))
        if self.agg_cache is None:
            return 0
        return self.agg_cache.usable_weight(now, max_staleness)
