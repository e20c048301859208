"""Spans around the stack's public entry points, recorded from here.

``install()`` replaces each entry point listed in :data:`TRACE_POINTS`
with a wrapper that records one span — name, layer, start, end, parent
span, request id — into an in-memory list.  Nothing inside ``src/`` is
edited; the wrappers live for the life of the (child) process.  Spans
are written out when the segment ends.

A layer's *self time* is its spans' duration minus the part their
child spans cover, so per request the self times sum to the root span.

The ``geometry`` helpers are scalar functions called ~10^6 times per
run; wrapping them would measure the wrapper, so their cost is read
inside ``geoblocks`` / ``core`` self time.  On the process backend only
the coordinator is traced: worker internals arrive as the counters
carried in the results.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (layer, module, class or None for a module-level function, attributes)
TRACE_POINTS = [
    ("frontdoor", "repro.frontdoor.frontdoor", "FrontDoor", ["execute"]),
    (
        "federation",
        "repro.federation.federated",
        "FederatedPortal",
        [
            "execute",
            "execute_polygon",
            "execute_batch",
            "rebuild_index",
            "checkpoint",
            "kill_shard",
            "revive_shard",
        ],
    ),
    (
        "federation",
        "repro.parallel.portal",
        "ParallelFederatedPortal",
        ["rebuild_index", "kill_shard", "revive_shard"],
    ),
    (
        "portal",
        "repro.portal.portal",
        "SensorMapPortal",
        ["execute", "execute_polygon", "execute_batch"],
    ),
    # ``group_answer`` is imported by name into its callers.
    ("portal", "repro.portal.grouping", None, ["group_answer"]),
    ("portal", "repro.portal.portal", None, ["group_answer"]),
    ("portal", "repro.portal.batch", None, ["group_answer"]),
    ("core", "repro.portal.portal", "SensorMapPortal", ["rebuild_index"]),
    (
        "core",
        "repro.core.tree",
        "COLRTree",
        ["query", "probe_and_cache", "insert_readings_batch"],
    ),
    ("core", "repro.portal.batch", None, ["shared_range_scan"]),
    ("transport", "repro.transport.dispatcher", "ProbeDispatcher", ["submit", "drain", "collect"]),
    (
        "sensors",
        "repro.sensors.network",
        "SensorNetwork",
        ["probe", "sample_attempts", "complete_batch"],
    ),
    (
        "storage",
        "repro.storage.engine",
        "StorageEngine",
        ["__init__", "journal_register", "journal_batch", "sync", "checkpoint"],
    ),
    ("geoblocks", "repro.geoblocks.executor", None, ["execute_polygon"]),
    ("rebalance", "repro.rebalance.migration", "ShardMover", ["absorb_joins", "absorb_leaves"]),
    ("rebalance", "repro.rebalance.rebalancer", "Rebalancer", ["run"]),
]

# Spans whose totals are reported under their own metric name.
NAMED = {
    "group_answer": "portal.group",
    "COLRTree.insert_readings_batch": "core.ingest",
    "SensorMapPortal.rebuild_index": "core.build",
    "StorageEngine.checkpoint": "storage.checkpoint",
    "StorageEngine.__init__": "storage.recovery",
    "ShardMover.absorb_joins": "rebalance.absorb",
    "ShardMover.absorb_leaves": "rebalance.absorb",
    "Rebalancer.run": "rebalance.step",
}

# QueryStats fields summed from every federation-level result (the
# counters the results carry; complete on both backends).
CORE_COUNTERS = (
    "nodes_traversed",
    "readings_scanned",
    "slots_combined",
    "maintenance_ops",
    "plan_cache_hits",
    "plan_cache_misses",
)
_HARVESTED = {
    "FederatedPortal.execute",
    "FederatedPortal.execute_polygon",
    "FederatedPortal.execute_batch",
}


def self_times(spans: list) -> list[float]:
    """Per-span self time: duration minus what direct children cover.
    ``spans`` rows are ``[name, layer, start, end, parent, request]``."""
    out = [row[3] - row[2] for row in spans]
    for row in spans:
        if row[4] >= 0:
            out[row[4]] -= row[3] - row[2]
    return out


def root_residuals(spans: list) -> dict[int, float]:
    """Per request: ``|sum of self times - root span| / root span``,
    the root being the request's first span (the one call the harness
    timed).  The acceptance bound is 5 %; nesting makes it ~0 unless a
    span lost its parent (an exception unwinding past a wrapper) or the
    request entered the stack twice."""
    selfs = self_times(spans)
    total: dict[int, float] = defaultdict(float)
    root: dict[int, float] = {}
    for row, own in zip(spans, selfs):
        if row[5] < 0:
            continue
        total[row[5]] += own
        root.setdefault(row[5], row[3] - row[2])
    return {
        request: abs(total[request] - duration) / duration
        for request, duration in root.items()
        if duration > 0
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1  # set by the replay loop; -1 is set-up
        self._stack: list[int] = []
        self._harvest_depth = 0
        self.core = dict.fromkeys(CORE_COUNTERS, 0)
        self.core["queries"] = 0

    def wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        harvested = name in _HARVESTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            row = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(row)
            stack.append(index)
            if harvested:
                self._harvest_depth += 1
            row[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = perf_counter()
                stack.pop()
                if harvested:
                    self._harvest_depth -= 1
            if harvested and self._harvest_depth == 0:
                self._harvest(result)
            return result

        return traced

    def _harvest(self, result) -> None:
        """Sum the QueryStats a federation-level result carries.  Only
        the outermost federation call harvests (``execute_polygon``
        delegates to ``execute`` for rectangles)."""
        batch = getattr(result, "results", None)
        for merged in batch if batch is not None else [result]:
            self.core["queries"] += 1
            for answer in merged.answers:
                for field in CORE_COUNTERS:
                    self.core[field] += getattr(answer.stats, field)
        if batch is not None:
            # Streamed-ingestion trigger work is billed to the tick,
            # not to any one query.
            self.core["maintenance_ops"] += result.stats.maintenance_ops

    def layer_totals(self) -> dict:
        """Seconds of self time per layer and per named span over the
        measured phase, set-up totals, span counts, and the worst
        per-request residual of the self-time identity."""
        selfs = self_times(self.spans)
        measured: dict[str, float] = defaultdict(float)
        setup: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for row, own in zip(self.spans, selfs):
            bucket = measured if row[5] >= 0 else setup
            bucket[row[1]] += own
            named = NAMED.get(row[0])
            if named is not None:
                bucket[named] += own
            if row[5] >= 0:
                calls[row[1]] += 1
        residuals = root_residuals(self.spans)
        return {
            "measured_s": dict(measured),
            "setup_s": dict(setup),
            "calls": dict(calls),
            "core": dict(self.core),
            "spans": len(self.spans),
            "max_root_residual": max(residuals.values(), default=0.0),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    "columns": ["name", "layer", "start", "end", "parent", "request"],
                    "spans": self.spans,
                },
                f,
            )


def install() -> Tracer:
    tracer = Tracer()
    for layer, module_name, class_name, attributes in TRACE_POINTS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for attribute in attributes:
            name = attribute if class_name is None else f"{class_name}.{attribute}"
            # vars(): wrap what the class itself defines, never an
            # inherited (already wrapped) attribute.
            original = vars(owner)[attribute]
            setattr(owner, attribute, tracer.wrap(original, name, layer))
    return tracer
