"""The per-cluster / per-level k-means bulk loader, kept as a test oracle.

Until PR 21 ``repro.core.build`` ran Lloyd's centre update as one
boolean mask + ``mean`` per cluster over an ``(n, k, 2)`` distance
temporary, and ``_build_kmeans`` rebuilt a coordinate array from the
``Sensor`` objects at every level of the recursion.  The library now
does both on arrays (one ``bincount`` pass per axis; one coordinate
array per tree, recursed by index).  These are the functions it
replaced, verbatim, so ``tests/property/test_bulk_load_props.py`` can
require equal labels, an equal generator state and equal trees node for
node.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.build import _assign_levels
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
    centers = _kmeans_plus_plus(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        # Assign each point to its nearest center.
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        # Recompute centers; re-seed empty clusters at the farthest point.
        for j in range(k):
            members = points[labels == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
            else:
                farthest = d2.min(axis=1).argmax()
                centers[j] = points[farthest]
    return labels


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers proportionally to
    squared distance from the chosen set."""
    n = points.shape[0]
    centers = np.empty((k, 2), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest_d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_d2.sum()
        if total <= 0.0:
            # All remaining points coincide with a center; any choice works.
            centers[j:] = points[int(rng.integers(n))]
            break
        probs = closest_d2 / total
        choice = int(rng.choice(n, p=probs))
        centers[j] = points[choice]
        d2 = ((points - centers[j]) ** 2).sum(axis=1)
        closest_d2 = np.minimum(closest_d2, d2)
    return centers


class _IdCounter:
    def __init__(self) -> None:
        self.next = 0

    def take(self) -> int:
        value = self.next
        self.next += 1
        return value


def _locations(sensors: Sequence[Sensor]) -> np.ndarray:
    return np.array([[s.location.x, s.location.y] for s in sensors], dtype=np.float64)


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
    if len(sensors) <= leaf_capacity:
        return _leaf(sensors, ids)
    points = _locations(sensors)
    labels = kmeans_cluster(points, fanout, rng)
    groups = [
        [sensors[i] for i in np.flatnonzero(labels == j)]
        for j in range(labels.max() + 1)
    ]
    groups = [g for g in groups if g]
    if len(groups) <= 1:
        # Coincident points defeat clustering; split evenly instead so
        # recursion always terminates.
        half = max(1, len(sensors) // 2)
        groups = [sensors[:half], sensors[half:]]
        groups = [g for g in groups if g]
        if len(groups) <= 1:
            return _leaf(sensors, ids)
    children = [_build_kmeans(g, fanout, leaf_capacity, rng, ids) for g in groups]
    bbox = Rect.union_of([c.bbox for c in children])
    return COLRNode(node_id=ids.take(), level=0, bbox=bbox, children=children)


def reference_build_colr_tree(
    sensors: Sequence[Sensor], fanout: int, leaf_capacity: int, seed: int = 0
) -> COLRNode:
    """``build_colr_tree(..., method="kmeans")`` as the parent of PR 21
    built it."""
    rng = np.random.default_rng(seed)
    root = _build_kmeans(list(sensors), fanout, leaf_capacity, rng, _IdCounter())
    _assign_levels(root)
    return root
