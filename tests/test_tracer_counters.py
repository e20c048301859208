"""The per-query counters the e2e tracer reads are there.

``benchmarks/e2e/tracing.py`` sums ``answer.stats.<name>`` for every
name in its ``CORE_COUNTERS`` over every federation-level result, and
adds a batch tick's ``result.stats.maintenance_ops`` (streamed
ingestion work no query owns).  A counter renamed or deleted here would
break the tracer only when it runs.  ``CORE_COUNTERS`` is read from the
file as a literal (the tracer is not importable from here), as
``tests/parallel/test_shard_counters.py`` reads the harness's
``SHARD_COUNTERS``.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from repro.core.stats import QueryStats
from repro.portal import BatchStats

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def core_counters() -> tuple[str, ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CORE_COUNTERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CORE_COUNTERS in {TRACING}")


def test_every_core_counter_is_a_query_stats_field():
    names = core_counters()
    assert names
    missing = set(names) - {f.name for f in fields(QueryStats)}
    assert not missing, missing


def test_a_ticks_maintenance_is_a_batch_stats_field():
    assert "maintenance_ops" in {f.name for f in fields(BatchStats)}
