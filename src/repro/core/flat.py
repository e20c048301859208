"""The flattened struct-of-arrays traversal kernel.

A built COLR-Tree never changes shape: bulk load fixes every bounding
box, weight, child list and leaf membership, and only the *temporal*
state (slot caches) evolves afterwards.  Walking the pointer-based
hierarchy and calling ``intersects_rect`` / ``contains_rect`` /
``overlap_fraction`` node by node in Python would re-derive the same
spatial facts on every query.

``FlatKernel`` freezes the static half of the index into numpy arrays —
per-node bbox extents, weight, level, CSR child offsets, and per-leaf
sensor-id/coordinate spans — so a query can *classify* every node
against its region (DISJOINT / PARTIAL / CONTAINED) in a handful of
vectorized operations, and compute every node's ``Overlap(BB(i), A)``
share weight in one shot.  The classification is exactly the set of
predicate results a node-by-node recursion computes — the oracle in
``tests/core/reference_traversal.py`` pins the same ``QueryAnswer``,
probe sets, ``TerminalRecord``s and traversal counters.

Layout
------
Nodes are stored in breadth-first order, which yields two free
invariants the kernel leans on:

* nodes of one level are contiguous (``level_starts``), so
  classification can run level by level with pure array indexing, and
* the children of any node are contiguous (``child_start`` /
  ``child_count``) *in child-list order*, so CSR traversal reproduces
  the recursive visit order exactly.

``preorder_rank`` additionally records each node's position in the
depth-first preorder, so fully vectorized scans can emit terminals in
traversal order without walking pointers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.core.region import Region, region_bbox
from repro.geometry import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import COLRNode
    from repro.sensors.sensor import Sensor

# Classification labels.  Kept as small ints so a whole tree's labels
# fit in one int8 array.
DISJOINT = 0
PARTIAL = 1
CONTAINED = 2


class FlatKernel:
    """Immutable struct-of-arrays snapshot of a built hierarchy."""

    __slots__ = (
        "n_nodes",
        "nodes",
        "index_of",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "weight",
        "level",
        "is_leaf",
        "parent",
        "child_start",
        "child_count",
        "level_starts",
        "leaf_start",
        "leaf_end",
        "sensor_ids",
        "sensor_x",
        "sensor_y",
        "preorder_rank",
        "preorder_leaves",
        "pre_leaf_sizes",
        "pre_leaf_bounds",
        "pre_leaf_starts",
        "pre_sensor_perm",
        "pre_sensor_ids",
        "pre_sensor_x",
        "pre_sensor_y",
        "_pre_leaf_node_ids",
        "_pre_leaf_levels",
        "_child_start_list",
        "_child_count_list",
        "_is_leaf_list",
    )

    def __init__(self, root: "COLRNode") -> None:
        order: list["COLRNode"] = []
        queue: deque["COLRNode"] = deque([root])
        while queue:
            node = queue.popleft()
            order.append(node)
            queue.extend(node.children)
        n = len(order)
        self.n_nodes = n
        self.nodes: list["COLRNode"] = order
        self.index_of: dict[int, int] = {
            node.node_id: i for i, node in enumerate(order)
        }

        self.min_x = np.array([nd.bbox.min_x for nd in order], dtype=np.float64)
        self.min_y = np.array([nd.bbox.min_y for nd in order], dtype=np.float64)
        self.max_x = np.array([nd.bbox.max_x for nd in order], dtype=np.float64)
        self.max_y = np.array([nd.bbox.max_y for nd in order], dtype=np.float64)
        self.weight = np.array([nd.weight for nd in order], dtype=np.int64)
        self.level = np.array([nd.level for nd in order], dtype=np.int32)
        self.is_leaf = np.array([nd.is_leaf for nd in order], dtype=bool)
        self.parent = np.array(
            [
                self.index_of[nd.parent.node_id] if nd.parent is not None else -1
                for nd in order
            ],
            dtype=np.int64,
        )

        # CSR child offsets.  BFS order makes each node's children a
        # contiguous run, already in child-list order.
        child_start = np.zeros(n, dtype=np.int64)
        child_count = np.zeros(n, dtype=np.int64)
        for i, nd in enumerate(order):
            if nd.children:
                child_start[i] = self.index_of[nd.children[0].node_id]
                child_count[i] = len(nd.children)
        self.child_start = child_start
        self.child_count = child_count

        # Level boundaries: nodes are level-sorted by construction.
        levels = self.level
        max_level = int(levels.max()) if n else 0
        starts = np.searchsorted(levels, np.arange(max_level + 2))
        self.level_starts = starts  # level l occupies [starts[l], starts[l + 1])

        # Per-leaf sensor spans, in ``leaf.sensors`` order (the order
        # the recursive leaf lookup iterates, which fixes probe order).
        leaf_start = np.zeros(n, dtype=np.int64)
        leaf_end = np.zeros(n, dtype=np.int64)
        ids: list[int] = []
        xs: list[float] = []
        ys: list[float] = []
        for i, nd in enumerate(order):
            if not nd.is_leaf:
                continue
            leaf_start[i] = len(ids)
            for sensor in nd.sensors:
                ids.append(sensor.sensor_id)
                xs.append(sensor.location.x)
                ys.append(sensor.location.y)
            leaf_end[i] = len(ids)
        self.leaf_start = leaf_start
        self.leaf_end = leaf_end
        self.sensor_ids = np.array(ids, dtype=np.int64)
        self.sensor_x = np.array(xs, dtype=np.float64)
        self.sensor_y = np.array(ys, dtype=np.float64)

        # Depth-first preorder ranks (the recursive visit order).
        rank = np.zeros(n, dtype=np.int64)
        stack = [0]
        counter = 0
        while stack:
            i = stack.pop()
            rank[i] = counter
            counter += 1
            start = int(child_start[i])
            cnt = int(child_count[i])
            if cnt:
                stack.extend(range(start + cnt - 1, start - 1, -1))
        self.preorder_rank = rank
        leaf_indices = np.flatnonzero(self.is_leaf)
        self.preorder_leaves = leaf_indices[np.argsort(rank[leaf_indices])]

        # Sensor arrays re-ordered to preorder-leaf order, so a fully
        # vectorized scan can emit probe ids in the recursive visit
        # order with one boolean gather instead of a per-leaf loop.
        pl = self.preorder_leaves
        sizes = leaf_end[pl] - leaf_start[pl]
        bounds = np.zeros(len(pl) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        total = int(bounds[-1])
        # Position of each preorder-ordered sensor in the global arrays:
        # each segment [bounds[k], bounds[k+1]) maps to the global span
        # [leaf_start[pl[k]], leaf_end[pl[k]]).
        within = np.arange(total, dtype=np.int64) - np.repeat(bounds[:-1], sizes)
        perm = np.repeat(leaf_start[pl], sizes) + within
        self.pre_leaf_sizes = sizes
        self.pre_leaf_bounds = bounds
        # Contiguous copy of the segment starts for ``np.add.reduceat``.
        self.pre_leaf_starts = np.ascontiguousarray(bounds[:-1])
        self.pre_sensor_perm = perm
        self.pre_sensor_ids = self.sensor_ids[perm]
        self.pre_sensor_x = self.sensor_x[perm]
        self.pre_sensor_y = self.sensor_y[perm]
        self._pre_leaf_node_ids = np.array(
            [order[i].node_id for i in pl.tolist()], dtype=np.int64
        )
        self._pre_leaf_levels = np.array(
            [order[i].level for i in pl.tolist()], dtype=np.int64
        )

        # Plain-list mirrors for the per-node traversal hot loop (Python
        # list indexing is several times cheaper than numpy scalar
        # indexing).
        self._child_start_list = child_start.tolist()
        self._child_count_list = child_count.tolist()
        self._is_leaf_list = self.is_leaf.tolist()

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, region: Region) -> np.ndarray:
        """Label every node DISJOINT / PARTIAL / CONTAINED against
        ``region``.

        For rectangular regions the three-way test is computed for all
        nodes at once (pure interval arithmetic, exact).  For polygonal
        (or other) regions, a vectorized bounding-box pass first settles
        every node the bbox can settle, then the exact region predicates
        run level by level on the undecided frontier only: children of
        DISJOINT / CONTAINED nodes inherit the parent's label (sound
        because a child's bbox lies inside its parent's), so exact tests
        are paid only where the region boundary actually passes.
        """
        if isinstance(region, Rect):
            return self._classify_rect(region)
        return self._classify_generic(region)

    def _classify_rect(self, r: Rect) -> np.ndarray:
        disjoint = (
            (self.min_x > r.max_x)
            | (self.max_x < r.min_x)
            | (self.min_y > r.max_y)
            | (self.max_y < r.min_y)
        )
        contained = (
            (r.min_x <= self.min_x)
            & (self.max_x <= r.max_x)
            & (r.min_y <= self.min_y)
            & (self.max_y <= r.max_y)
        )
        labels = np.full(self.n_nodes, PARTIAL, dtype=np.int8)
        labels[contained] = CONTAINED
        labels[disjoint] = DISJOINT
        return labels

    def _classify_generic(self, region: Region) -> np.ndarray:
        qb = region_bbox(region)
        # Bbox screens, matching the early-outs of the exact predicates:
        # bbox-disjoint nodes cannot intersect, and a node whose bbox is
        # not fully inside the region's bbox cannot be contained.
        bbox_disjoint = (
            (self.min_x > qb.max_x)
            | (self.max_x < qb.min_x)
            | (self.min_y > qb.max_y)
            | (self.max_y < qb.min_y)
        )
        labels = np.full(self.n_nodes, PARTIAL, dtype=np.int8)
        nodes = self.nodes
        starts = self.level_starts

        def exact(i: int) -> int:
            if bbox_disjoint[i]:
                return DISJOINT
            bbox = nodes[i].bbox
            if not region.intersects_rect(bbox):
                return DISJOINT
            if region.contains_rect(bbox):
                return CONTAINED
            return PARTIAL

        labels[0] = exact(0)
        for level in range(1, len(starts) - 1):
            lo, hi = int(starts[level]), int(starts[level + 1])
            plabels = labels[self.parent[lo:hi]]
            # A child bbox lies inside its parent's, so a parent that is
            # wholly in (or wholly out of) the region settles every
            # descendant; only the PARTIAL frontier needs exact tests.
            seg = labels[lo:hi]
            settled = plabels != PARTIAL
            seg[settled] = plabels[settled]
            for off in np.flatnonzero(~settled):
                seg[off] = exact(lo + int(off))
        return labels

    # ------------------------------------------------------------------
    # Overlap fractions
    # ------------------------------------------------------------------
    def overlap_fractions(self, region: Region) -> np.ndarray:
        """``Overlap(BB(i), A)`` for every node in one vectorized pass.

        Matches :func:`repro.core.lookup.region_overlap_fraction`
        bit-for-bit: the overlap is always computed against the region's
        *bounding box* (exact for rectangles, the paper's approximation
        for polygons), with the same degenerate-box fallback.
        """
        qb = region_bbox(region)
        disjoint = (
            (qb.min_x > self.max_x)
            | (qb.max_x < self.min_x)
            | (qb.min_y > self.max_y)
            | (qb.max_y < self.min_y)
        )
        ix = np.minimum(self.max_x, qb.max_x) - np.maximum(self.min_x, qb.min_x)
        iy = np.minimum(self.max_y, qb.max_y) - np.maximum(self.min_y, qb.min_y)
        area = (self.max_x - self.min_x) * (self.max_y - self.min_y)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (ix * iy) / area
        # Degenerate (zero-area) boxes: 1.0 when the center lies inside
        # the region bbox, else 0.0 — same closed comparisons as
        # ``Rect.overlap_fraction``.
        cx = (self.min_x + self.max_x) / 2.0
        cy = (self.min_y + self.max_y) / 2.0
        center_in = (
            (qb.min_x <= cx) & (cx <= qb.max_x) & (qb.min_y <= cy) & (cy <= qb.max_y)
        )
        degenerate = area <= 0.0
        frac = np.where(degenerate, np.where(center_in, 1.0, 0.0), frac)
        frac[disjoint] = 0.0
        return frac

    # ------------------------------------------------------------------
    # Leaf membership
    # ------------------------------------------------------------------
    def leaf_matching(self, i: int, region: Region) -> list["Sensor"]:
        """Sensors of leaf ``i`` inside ``region``, in leaf order (the
        order the recursive ``_leaf_lookup`` produces)."""
        node = self.nodes[i]
        if isinstance(region, Rect):
            lo, hi = int(self.leaf_start[i]), int(self.leaf_end[i])
            x = self.sensor_x[lo:hi]
            y = self.sensor_y[lo:hi]
            mask = (
                (region.min_x <= x)
                & (x <= region.max_x)
                & (region.min_y <= y)
                & (y <= region.max_y)
            )
            sensors = node.sensors
            return [sensors[j] for j in np.flatnonzero(mask)]
        return [s for s in node.sensors if region.contains_point(s.location)]

    # ------------------------------------------------------------------
    # Visited set (for fully vectorized scans)
    # ------------------------------------------------------------------
    def visited_mask(self, labels: np.ndarray) -> np.ndarray:
        """Nodes the recursive range lookup visits when no cache
        termination fires: the root plus every child of a visited
        non-disjoint internal node (DISJOINT nodes themselves are
        visited — the recursion enters them to test and return)."""
        visited = np.zeros(self.n_nodes, dtype=bool)
        visited[0] = True
        starts = self.level_starts
        for level in range(1, len(starts) - 1):
            lo, hi = int(starts[level]), int(starts[level + 1])
            parents = self.parent[lo:hi]
            visited[lo:hi] = visited[parents] & (labels[parents] != DISJOINT)
        return visited
