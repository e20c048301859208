"""The pointer-chasing range scan, kept as a differential oracle.

This is the per-node recursion ``repro.core.lookup`` ran before the
flattened kernel became the only traversal: geometry predicates are
evaluated node by node against ``node.bbox`` and the tree is walked
through ``node.children``.  Leaf serving and aggregate termination are
the production helpers — the oracle checks the *traversal* (which nodes
are visited, in which order, with which containment verdict), not the
cache reads it shares with the kernel path.
"""

from __future__ import annotations

from repro.core.lookup import QueryAnswer, _serve_leaf, _try_aggregate_termination


def reference_range_scan(tree, region, now, max_staleness, aggregate_termination=True):
    """``range_scan`` by recursion: ``(answer, to_probe)``."""
    answer = QueryAnswer()
    to_probe: list[int] = []

    def descend(node) -> None:
        answer.stats.nodes_traversed += 1
        if not region.intersects_rect(node.bbox):
            return
        fully_inside = region.contains_rect(node.bbox)
        if node.is_leaf:
            matching = (
                node.sensors
                if fully_inside
                else [s for s in node.sensors if region.contains_point(s.location)]
            )
            _serve_leaf(tree, node, matching, now, max_staleness, answer, to_probe)
            return
        if aggregate_termination and _try_aggregate_termination(
            tree, node, fully_inside, now, max_staleness, answer
        ):
            return
        for child in node.children:
            descend(child)

    descend(tree.root)
    return answer, to_probe
