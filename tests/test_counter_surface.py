"""The counter surface: every field of every ``*Stats`` dataclass under
``src/repro``.

Each fact is counted once, by the layer that sees it: the wire's by
``NetworkStats``, the dispatcher's decisions by ``TransportStats``, a
query's work by ``QueryStats``, a polygon's cell plan by its
``PolygonResult``.  A field name that two classes share is the same fact
counted twice — a mirror that can drift from its owner — unless a row of
:data:`SHARED` says, class by class, which different fact each one
counts.

A counter added to a stats class moves
:func:`test_the_surface_is_83_fields_over_eight_classes`; a counter that
restates another class's under the same name fails
:func:`test_a_shared_name_counts_different_facts` until it goes or gets
a row.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SHARED: dict[str, dict[str, str]] = {
    "maintenance_ops": {
        "QueryStats": "the trigger work of one query's own ingestion",
        "BatchStats": "a shared probe round's streamed ingestion, which no"
        " one query of the tick owns",
        "TransportStats": "every streamed ingestion the dispatcher ran,"
        " whoever owned the round",
    },
    "probes_timed_out": {
        "QueryStats": "one query's logical probes whose last attempt timed out",
        "NetworkStats": "every wire attempt abandoned at the timeout,"
        " retried ones included",
    },
}


def stats_classes() -> dict[str, list[str]]:
    """Module name -> the ``*Stats`` dataclasses it defines, found by
    parsing ``src/repro``."""
    found: dict[str, list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Stats")
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            ):
                module = ".".join(path.relative_to(SRC).with_suffix("").parts)
                found.setdefault(module, []).append(node.name)
    return found


def fields_by_class() -> dict[str, list[str]]:
    """``Class`` -> its dataclass fields, in source order."""
    out: dict[str, list[str]] = {}
    for module, names in stats_classes().items():
        for name in names:
            assert name not in out, f"two stats classes named {name}"
            cls = getattr(importlib.import_module(module), name)
            out[name] = [f.name for f in dataclasses.fields(cls)]
    return out


def test_the_surface_is_83_fields_over_eight_classes():
    by_class = fields_by_class()
    assert sorted(by_class) == [
        "AdmissionStats",
        "BatchStats",
        "CacheStats",
        "FederationStats",
        "NetworkStats",
        "QueryStats",
        "StorageStats",
        "TransportStats",
    ]
    assert sum(map(len, by_class.values())) == 83


def test_a_shared_name_counts_different_facts():
    owners: dict[str, list[str]] = {}
    for cls, names in fields_by_class().items():
        for name in names:
            owners.setdefault(name, []).append(cls)
    shared = {name: sorted(c) for name, c in owners.items() if len(c) > 1}
    unexplained = {name: c for name, c in shared.items() if name not in SHARED}
    assert not unexplained, f"one fact counted twice: {unexplained}"
    for name, rows in SHARED.items():
        assert shared.get(name) == sorted(rows), (name, shared.get(name))
