"""Bulk loading: k-means-clustered hierarchy construction.

Section III-C: sensor locations rarely change, so the index is built in
batch "by iteratively computing sensor clusters with a k-means algorithm
to construct a hierarchy" and periodically rebuilt.  We implement that
as recursive bisecting k-means: each internal node partitions its
sensors into ``fanout`` spatial clusters (Lloyd's algorithm with
k-means++ seeding), recursing until a partition fits in a leaf.  The
recursion yields exactly the bottom-up containment hierarchy the paper's
query processing relies on, with near-uniform per-level weights (the
uniformity the Figure 3 analysis verifies).

Two alternative bulk loaders are provided for ablation benchmarks:
an STR (sort-tile-recursive) packer and a Hilbert-curve packer — the
Kamel–Faloutsos packed-R-tree lineage the paper cites as its other
inspiration.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.node import COLRNode
from repro.geometry import Rect
from repro.sensors.sensor import Sensor


def kmeans_cluster(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 25,
) -> np.ndarray:
    """Cluster ``points`` (n, 2) into up to ``k`` groups with Lloyd's
    algorithm and k-means++ seeding.  Returns integer labels in
    ``[0, k)``; some labels may be unused when points coincide.
    """
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot cluster zero points")
    k = min(k, n)
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    px = np.ascontiguousarray(points[:, 0])
    py = np.ascontiguousarray(points[:, 1])
    centers = _kmeans_plus_plus(px, py, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for iteration in range(max_iters):
        # Assign each point to its nearest center.
        d2 = _squared_distance(px[:, None], py[:, None], centers.T)
        new_labels = d2.argmin(axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Recompute centers (per-cluster sums accumulate in index order);
        # re-seed empty clusters at the farthest point.
        counts = np.bincount(labels, minlength=k)
        occupied = counts > 0
        sizes = counts[occupied]
        for axis, column in enumerate((px, py)):
            sums = np.bincount(labels, weights=column, minlength=k)
            centers[occupied, axis] = sums[occupied] / sizes
        if not occupied.all():
            centers[~occupied] = points[d2.min(axis=1).argmax()]
    return labels


def _kmeans_plus_plus(
    px: np.ndarray, py: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers proportionally to
    squared distance from the chosen set."""
    n = px.shape[0]
    centers = np.empty((k, 2), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = px[first], py[first]
    closest_d2 = _squared_distance(px, py, centers[0])
    for j in range(1, k):
        total = closest_d2.sum()
        if total <= 0.0:
            # All remaining points coincide with a center; any choice works.
            fill = int(rng.integers(n))
            centers[j:] = px[fill], py[fill]
            break
        probs = closest_d2 / total
        choice = int(rng.choice(n, p=probs))
        centers[j] = px[choice], py[choice]
        closest_d2 = np.minimum(closest_d2, _squared_distance(px, py, centers[j]))
    return centers


def _squared_distance(px: np.ndarray, py: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance from each point to ``center`` — one ``(x, y)``,
    or a ``(2, k)`` block of centers against ``(n, 1)`` columns."""
    dx = px - center[0]
    dy = py - center[1]
    return dx * dx + dy * dy


def build_colr_tree(
    sensors: Sequence[Sensor],
    fanout: int,
    leaf_capacity: int,
    seed: int = 0,
    method: str = "kmeans",
) -> COLRNode:
    """Build the node hierarchy over a sensor population.

    Parameters
    ----------
    sensors:
        The population; must be non-empty.
    fanout:
        Children per internal node (the clustering ``k``).
    leaf_capacity:
        Maximum sensors per leaf.
    seed:
        RNG seed for clustering.
    method:
        ``"kmeans"`` (the paper's builder) or ``"str"`` (packed R-tree
        ablation).

    Returns the root :class:`COLRNode`; levels are assigned root = 0.
    """
    if not sensors:
        raise ValueError("cannot build a tree over zero sensors")
    if method not in ("kmeans", "str", "hilbert"):
        raise ValueError(f"unknown build method {method!r}")
    rng = np.random.default_rng(seed)
    ids = _IdCounter()
    if method == "kmeans":
        root = _build_kmeans(list(sensors), fanout, leaf_capacity, rng, ids)
    elif method == "str":
        root = _build_str(list(sensors), fanout, leaf_capacity, ids)
    else:
        root = _build_hilbert(list(sensors), fanout, leaf_capacity, ids)
    _assign_levels(root)
    return root


class _IdCounter:
    def __init__(self) -> None:
        self.next = 0

    def take(self) -> int:
        value = self.next
        self.next += 1
        return value


def _leaf(sensors: list[Sensor], ids: _IdCounter) -> COLRNode:
    bbox = Rect.from_points(s.location for s in sensors)
    return COLRNode(node_id=ids.take(), level=0, bbox=bbox, sensors=sensors)


def _build_kmeans(
    sensors: list[Sensor],
    fanout: int,
    leaf_capacity: int,
    rng: np.random.Generator,
    ids: _IdCounter,
) -> COLRNode:
    """Recursive k-means over one coordinate array for the whole tree:
    every level clusters and splits its population by index."""
    coords = np.array([[s.location.x, s.location.y] for s in sensors], dtype=np.float64)

    def build(members: np.ndarray) -> COLRNode:
        groups: list[np.ndarray] = []
        if members.size > leaf_capacity:
            labels = kmeans_cluster(coords[members], fanout, rng)
            groups = [members[labels == j] for j in range(labels.max() + 1)]
            groups = [g for g in groups if g.size]
            if len(groups) <= 1:
                # Coincident points defeat clustering; split evenly instead
                # so recursion always terminates.
                half = max(1, members.size // 2)
                groups = [g for g in (members[:half], members[half:]) if g.size]
        if len(groups) <= 1:
            return _leaf([sensors[i] for i in members.tolist()], ids)
        children = [build(g) for g in groups]
        bbox = Rect.union_of([c.bbox for c in children])
        return COLRNode(node_id=ids.take(), level=0, bbox=bbox, children=children)

    return build(np.arange(len(sensors)))


def _build_str(
    sensors: list[Sensor], fanout: int, leaf_capacity: int, ids: _IdCounter
) -> COLRNode:
    """Sort-tile-recursive packing: sort by x into vertical strips, then
    each strip by y into tiles of ``leaf_capacity`` sensors."""
    ordered = sorted(sensors, key=lambda s: (s.location.x, s.location.y))
    n = len(ordered)
    n_leaves = math.ceil(n / leaf_capacity)
    n_strips = max(1, math.ceil(math.sqrt(n_leaves)))
    strip_size = math.ceil(n / n_strips)
    leaves: list[COLRNode] = []
    for i in range(0, n, strip_size):
        strip = sorted(ordered[i : i + strip_size], key=lambda s: (s.location.y, s.location.x))
        for j in range(0, len(strip), leaf_capacity):
            leaves.append(_leaf(strip[j : j + leaf_capacity], ids))
    return _pack_upward(leaves, fanout, ids)


def _build_hilbert(
    sensors: list[Sensor], fanout: int, leaf_capacity: int, ids: _IdCounter
) -> COLRNode:
    """Hilbert-curve packing: sort sensors by the Hilbert index of
    their (normalized) location and pack consecutive runs into leaves.
    The space-filling curve preserves locality in both axes at once,
    which often yields tighter leaves than STR's strip tiling."""
    xs = np.array([s.location.x for s in sensors])
    ys = np.array([s.location.y for s in sensors])
    span_x = max(float(xs.max() - xs.min()), 1e-12)
    span_y = max(float(ys.max() - ys.min()), 1e-12)
    order = 16  # 2^16 cells per axis: ample resolution for any fleet
    side = (1 << order) - 1
    gx = np.clip(((xs - xs.min()) / span_x * side).astype(np.int64), 0, side)
    gy = np.clip(((ys - ys.min()) / span_y * side).astype(np.int64), 0, side)
    keys = [
        (hilbert_index(order, int(cx), int(cy)), i)
        for i, (cx, cy) in enumerate(zip(gx, gy))
    ]
    keys.sort()
    ordered = [sensors[i] for _, i in keys]
    leaves = [
        _leaf(ordered[i : i + leaf_capacity], ids)
        for i in range(0, len(ordered), leaf_capacity)
    ]
    return _pack_upward(leaves, fanout, ids)


def hilbert_index(order: int, x: int, y: int) -> int:
    """Distance along the order-``order`` Hilbert curve of cell (x, y).

    The classic bit-twiddling conversion (Lam & Shapiro): walk the
    quadrant decomposition from the top, rotating/reflecting the frame.
    """
    if order < 1:
        raise ValueError("order must be positive")
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"cell ({x}, {y}) outside the order-{order} grid")
    rx = ry = 0
    d = 0
    s = side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def _pack_upward(nodes: list[COLRNode], fanout: int, ids: _IdCounter) -> COLRNode:
    """Group a node list into parents of ``fanout`` until one remains."""
    while len(nodes) > 1:
        parents: list[COLRNode] = []
        ordered = sorted(nodes, key=lambda nd: (nd.bbox.center.x, nd.bbox.center.y))
        for i in range(0, len(ordered), fanout):
            group = ordered[i : i + fanout]
            bbox = Rect.union_of([c.bbox for c in group])
            parents.append(COLRNode(node_id=ids.take(), level=0, bbox=bbox, children=group))
        nodes = parents
    return nodes[0]


def _assign_levels(root: COLRNode) -> None:
    """Number levels from the root downward (root = level 0, as in the
    paper's footnote 3)."""
    queue: list[tuple[COLRNode, int]] = [(root, 0)]
    while queue:
        node, level = queue.pop()
        node.level = level
        for child in node.children:
            queue.append((child, level + 1))
