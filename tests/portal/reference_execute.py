"""The sequential ``SensorMapPortal.execute`` that the batch executor
replaced.

``SensorMapPortal.execute(q)`` is ``execute_batch([q]).results[0]``, so
comparing the two is no longer a check of anything.  This is the
per-tree loop ``execute`` ran before — one ``COLRTree.query`` per type
tree, then grouping — kept as the oracle that
``tests/property/test_batch_parity.py`` holds a singleton batch equal
to, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.lookup import QueryAnswer
from repro.portal.grouping import (
    DisplayGroup,
    concat_groups,
    group_answer,
    group_by_terminal,
)
from repro.portal.portal import PortalResult, SensorMapPortal
from repro.portal.query import SensorQuery


def reference_execute(self: SensorMapPortal, query: SensorQuery) -> PortalResult:
    """Execute one portal query at the current simulated time."""
    self._ensure_index()
    now = self.clock.now()
    if query.sensor_type is not None:
        if query.sensor_type not in self._trees:
            raise KeyError(f"no sensors of type {query.sensor_type!r} registered")
        trees = [self._trees[query.sensor_type]]
    else:
        trees = list(self._trees.values())
    answers: list[QueryAnswer] = []
    groups: list[Sequence[DisplayGroup]] = []
    processing = 0.0
    collection = 0.0
    sample_size = self._effective_sample_size(query.sample_size, len(trees))
    for tree in trees:
        answer = tree.query(
            query.region,
            now=now,
            max_staleness=query.staleness_seconds,
            sample_size=sample_size,
            terminal_level=query.zoom_level,
        )
        answers.append(answer)
        processing += self.cost_model.processing_seconds(answer.stats)
        collection += answer.stats.collection_latency_seconds
        if query.zoom_level is not None:
            groups.append(group_by_terminal(answer, tree, query.zoom_level))
        else:
            groups.append(group_answer(answer, query.cluster_miles, tree=tree))
    return PortalResult(
        query=query,
        groups=concat_groups(groups),
        answers=answers,
        processing_seconds=processing,
        collection_seconds=collection,
        sample_requested=(
            sample_size * len(trees)
            if sample_size and self.config.sampling_enabled
            else None
        ),
    )
