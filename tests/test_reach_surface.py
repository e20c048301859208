"""The reach surface: every ``src/repro`` function that no program calls,
one row each.

``tools/census.py`` (the ``census`` CI job) runs the repository's own
programs — the end-to-end benchmark, the nine subsystem benches,
README's ``repro demo`` / ``repro storage`` lines, ``repro shard``,
``examples/`` and ``pytest benchmarks/`` (the paper figures) — with a
profile hook, and fails when a function none of them calls has no row
here.  A row's reason opens with
its class:

* (a) a ``src/`` caller reaches it on inputs the programs do not produce;
* (b) crash recovery or other safety code;
* (c) a documented user entry point;
* (d) a paper-fidelity form that a test holds equal;
* (e) a name in the e2e benchmark's ``TRACE_POINTS``;
* (f) the base an open ROADMAP item builds on.

A function that fits none of them is deleted, not listed.  This module
runs nothing: it checks that every row names a function that exists.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

KEPT: dict[str, str] = {
    # (a) Reached from src/ on inputs the programs do not produce.
    "repro/federation/backend.py:InProcessBackend.pid": (
        "(a) FederatedPortal.worker_pid on the in-process backend (None: no worker)"
    ),
    "repro/federation/partitioner.py:KMeansPartitioner.__init__": (
        "(a) make_partitioner('kmeans'), the `repro shard --partitioner kmeans` choice"
    ),
    "repro/federation/partitioner.py:KMeansPartitioner.assign": (
        "(a) make_partitioner('kmeans'), the `repro shard --partitioner kmeans` choice"
    ),
    "repro/parallel/portal.py:ProcessBackend.stage": (
        "(a) FederatedPortal.rebalance_apply when a rebalance commits on the"
        " process backend (e2e churn_rw runs in-process)"
    ),
    "repro/parallel/portal.py:ProcessBackend.commit": (
        "(a) FederatedPortal.rebalance_apply when a rebalance commits on the"
        " process backend (e2e churn_rw runs in-process)"
    ),
    "repro/portal/grouping.py:group_by_terminal": (
        "(a) portal/batch.py groups a query with a ZOOM clause (zoom_level) by it"
    ),
    "repro/portal/grouping.py:_ancestor_at_level": (
        "(a) group_by_terminal, for a query with a ZOOM clause"
    ),
    "repro/portal/grouping.py:GroupView.__getitem__": (
        "(a) Sequence's abstract method: GroupView cannot be built without it,"
        " and Sequence.index / __contains__ / __reversed__ call it"
    ),
    "repro/portal/grouping.py:GroupView.__reduce__": (
        "(a) parallel/wire.pack's plain-pickle arm, for a reply whose views"
        " do not line up with its answers"
    ),
    "repro/rebalance/migration.py:ShardMover.split": (
        "(a) Rebalancer.step when the heaviest shard passes SPLIT_FACTOR x the mean"
    ),
    "repro/rebalance/migration.py:ShardMover.merge": (
        "(a) Rebalancer.step when the lightest shard falls below MERGE_FRACTION x the mean"
    ),
    "repro/rebalance/rebalancer.py:Rebalancer._nearest_alive": (
        "(a) Rebalancer.plan, choosing a starved shard's merge partner"
    ),
    "repro/relational/predicate.py:InSet.__init__": (
        "(a) RelCOLRTree.insert_readings_batch deleting the rows of sensors"
        " already cached; (d) descend_by_joins"
    ),
    "repro/relational/predicate.py:InSet.matches": (
        "(a) RelCOLRTree.insert_readings_batch deleting the rows of sensors"
        " already cached; (d) descend_by_joins"
    ),
    "repro/relational/predicate.py:_ColumnExpr.in_": (
        "(a) RelCOLRTree.insert_readings_batch deleting the rows of sensors"
        " already cached; (d) descend_by_joins"
    ),
    "repro/relational/table.py:Table.__iter__": (
        "(a) relcolr _Maintenance._enforce_capacity when MaintenanceConfig"
        ".cache_capacity is set"
    ),
    "repro/relcolr/tree.py:_sketch_of_row": (
        "(a) RelCOLRTree.cache_read when a node's usable cached weight covers it"
    ),
    "repro/transport/dispatcher.py:ProbeDispatcher._run_isolated": (
        "(a) ProbeDispatcher.drain with overlap_enabled=False and max_retries > 0"
    ),
    # (b) Crash recovery and other safety code.
    "repro/failpoints.py:armed": (
        "(b) the fail-point hook the crash sweep (tests/storage/crash_sweep.py)"
        " and the failure-injection tests arm"
    ),
    "repro/federation/federated.py:FederatedPortal.__enter__": (
        "(b) context-manager close(): a process-backend portal's workers are"
        " reaped even when the block raises"
    ),
    "repro/federation/federated.py:FederatedPortal.__exit__": (
        "(b) context-manager close(): a process-backend portal's workers are"
        " reaped even when the block raises"
    ),
    "repro/federation/partitioner.py:FixedPartitioner.__init__": (
        "(b) how a caller rebuilds a federation from resolve_pending's assignment"
    ),
    "repro/federation/partitioner.py:FixedPartitioner.assign": (
        "(b) how a caller rebuilds a federation from resolve_pending's assignment"
    ),
    "repro/portal/portal.py:SensorMapPortal.__enter__": (
        "(b) context-manager close(): the storage engine is closed even when"
        " the block raises"
    ),
    "repro/portal/portal.py:SensorMapPortal.__exit__": (
        "(b) context-manager close(): the storage engine is closed even when"
        " the block raises"
    ),
    "repro/rebalance/journal.py:resolve_pending": (
        "(b) resolves a migration a coordinator crash interrupted, on reopen"
    ),
    "repro/rebalance/journal.py:MigrationResolution.assignment": (
        "(b) resolve_pending's result, fed to FixedPartitioner"
    ),
    "repro/rebalance/journal.py:MigrationResolution.n_shards": (
        "(b) resolve_pending's result, fed to FixedPartitioner"
    ),
    "repro/relational/predicate.py:_ColumnExpr.__ne__": (
        "(b) keeps col(x) != v a Comparison: without it Python inverts __eq__"
        " and the predicate is a silent False"
    ),
    "repro/storage/codec.py:format_error": (
        "(b) the loud error for a file in an older format, naming the converter"
    ),
    # (c) Documented user entry points.
    "repro/portal/portal.py:SensorMapPortal.register_sensor": (
        "(c) a portal's one-sensor registration, journaled on a durable portal"
        " (docs/architecture.md); tests/pin_behaviour.py builds its fleets with it"
    ),
    "repro/convert.py:main": "(c) `python -m repro.convert PATH...`",
    "repro/convert.py:convert": "(c) `python -m repro.convert PATH...`",
    "repro/convert.py:convert_checkpoint": "(c) `python -m repro.convert`, format-2 checkpoints",
    "repro/convert.py:convert_wal": "(c) `python -m repro.convert`, COLRWAL1 logs",
    "repro/convert.py:_data_dirs": "(c) `python -m repro.convert` on a data or federation directory",
    "repro/convert.py:_load": "(c) `python -m repro.convert`: reads one pickled record",
    "repro/convert.py:_NoGlobals.find_class": (
        "(c) `python -m repro.convert`: refuses every pickled global"
    ),
    "repro/convert.py:_sensor": "(c) `python -m repro.convert`: one old sensor record",
    "repro/convert.py:_reading": "(c) `python -m repro.convert`: one old reading record",
    "repro/storage/wal.py:WriteAheadLog.__enter__": "(c) convert_wal writes the new log in a with block",
    "repro/storage/wal.py:WriteAheadLog.__exit__": "(c) convert_wal writes the new log in a with block",
    # (d) Paper-fidelity forms a test holds equal.
    "repro/relcolr/joins.py:descend_by_joins": (
        "(d) Section VI-A's left-deep join descent; tests/relcolr/test_joins.py"
        " holds it equal to the frontier descent"
    ),
    "repro/relational/predicate.py:BBoxIntersects.matches": (
        "(d) descend_by_joins' spatial join predicate"
    ),
    "repro/relcolr/triggers.py:_Maintenance.slot_delete_trigger": (
        "(d) Section VI-B's slot-delete trigger; tests/relcolr/test_triggers.py"
        " holds it equal to COLRTree's decrement"
    ),
    "repro/relcolr/triggers.py:_Maintenance._grouped_delete": (
        "(d) the slot-delete trigger's grouped form"
    ),
    "repro/relcolr/triggers.py:_Maintenance._apply_bulk_removal": (
        "(d) the slot-delete trigger's grouped form"
    ),
    "repro/relcolr/triggers.py:_Maintenance._recompute_extremes": (
        "(d) the slot-delete and slot-update triggers' min/max repair"
    ),
    # (e) Names in the e2e benchmark's TRACE_POINTS (until ROADMAP item 6(e)).
    "repro/parallel/portal.py:ParallelFederatedPortal.rebuild_index": "(e) TRACE_POINTS",
    "repro/parallel/portal.py:ParallelFederatedPortal.kill_shard": "(e) TRACE_POINTS",
    "repro/parallel/portal.py:ParallelFederatedPortal.revive_shard": "(e) TRACE_POINTS",
    "repro/storage/engine.py:StorageEngine.journal_register": (
        "(e) TRACE_POINTS; SensorMapPortal.register_sensor journals through it"
    ),
    "repro/storage/engine.py:StorageEngine.sync": "(e) TRACE_POINTS",
    # (f) The base an open ROADMAP item builds on.
    "repro/core/explain.py:explain_query": "(f) EXPLAIN: ROADMAP item 4(a)",
    "repro/core/explain.py:_explain_exact": "(f) EXPLAIN: ROADMAP item 4(a)",
    "repro/core/explain.py:_walk_exact": "(f) EXPLAIN: ROADMAP item 4(a)",
    "repro/core/explain.py:_walk_sampled": "(f) EXPLAIN: ROADMAP item 4(a)",
    "repro/core/explain.py:_plan_terminal": "(f) EXPLAIN: ROADMAP item 4(a)",
    "repro/core/explain.py:_relevant_sensor_count": (
        "(f) EXPLAIN: ROADMAP item 4(a)"
    ),
    "repro/core/explain.py:QueryPlan.format": "(f) EXPLAIN: ROADMAP item 4(a)",
    "repro/core/explain.py:QueryPlan.cache_coverage": (
        "(f) EXPLAIN: ROADMAP item 4(a)"
    ),
    "repro/core/node.py:COLRNode.n_descendants": "(f) explain's per-node probe pool",
    "repro/core/tree.py:COLRTree.explain": "(f) EXPLAIN: ROADMAP item 4(a)",
    "repro/portal/portal.py:SensorMapPortal.explain": (
        "(f) EXPLAIN: ROADMAP item 4(a)"
    ),
    "repro/federation/federated.py:FederatedPortal.explain": (
        "(f) EXPLAIN: ROADMAP item 4(a)"
    ),
}


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A protocol method's declaration: a docstring and/or ``...``."""
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        for stmt in node.body
    )


def _defs(body: list[ast.stmt], prefix: str):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_stub(node):
                yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _defs(node.body + node.orelse, prefix)


def functions() -> dict[str, int]:
    """``repro/<file>:<qualname>`` -> source lines, for every function
    defined at module level or in a class body under ``src/repro``
    (nested functions count as part of the function around them; a
    protocol method's bodiless declaration has nothing to reach)."""
    found: dict[str, int] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for qualname, node in _defs(ast.parse(path.read_text(), str(path)).body, ""):
            key = f"{name}:{qualname}"
            found[key] = found.get(key, 0) + node.end_lineno - node.lineno + 1
    return found


def test_every_row_names_a_function():
    missing = sorted(set(KEPT) - set(functions()))
    assert not missing, f"KEPT rows for functions that do not exist: {missing}"


def test_every_row_has_a_class():
    unclassed = sorted(
        key for key, reason in KEPT.items() if not re.match(r"\([a-f]\) \S", reason)
    )
    assert not unclassed, f"KEPT rows whose reason opens with no (a)-(f) class: {unclassed}"
