"""The configuration surface: every field of every ``*Config`` dataclass
under ``src/repro``, one row each.

A row says why the field is a knob rather than a module constant:

* :class:`Seen` — a program outside the tests sets it to a non-default
  value; ``caller`` is the file that does, ``how`` the text in it that
  does.  ``tools/census.py`` (the ``census`` CI job) reruns those
  programs and fails when one of these is never seen turned.
* :class:`Kept` — nothing turns it at quick scale, and ``reason`` says
  why it stays a field anyway.

A field added to a config class fails :func:`test_every_field_has_a_row`
until someone writes its row; a value no workload sets belongs beside
the code that reads it, as a constant.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


@dataclass(frozen=True)
class Seen:
    caller: str
    how: str


@dataclass(frozen=True)
class Kept:
    reason: str


SURFACE: dict[str, Seen | Kept] = {
    # The paper's tunables and the evaluation's baselines and ablations.
    "COLRTreeConfig.fanout": Seen("src/repro/bench/fig7.py", "fanout=4"),
    "COLRTreeConfig.leaf_capacity": Seen("src/repro/bench/fig7.py", "leaf_capacity=8"),
    "COLRTreeConfig.max_expiry_seconds": Seen(
        "src/repro/bench/fig7.py", "max_expiry_seconds=workload.expiry_seconds"
    ),
    "COLRTreeConfig.slot_seconds": Seen(
        "src/repro/bench/ablations.py", "with_slot_seconds(delta)"
    ),
    "COLRTreeConfig.terminal_level": Seen(
        "src/repro/bench/ablations.py", "terminal_level=level"
    ),
    "COLRTreeConfig.oversample_level": Seen(
        "src/repro/bench/fig7.py", "oversample_level=2"
    ),
    "COLRTreeConfig.caching_enabled": Seen(
        "src/repro/bench/ablations.py", "caching_enabled=False"
    ),
    "COLRTreeConfig.aggregate_caching_enabled": Seen(
        "src/repro/bench/ablations.py", "aggregate_caching_enabled=enabled"
    ),
    "COLRTreeConfig.sampling_enabled": Seen(
        "src/repro/baselines/factory.py", "config.as_plain_rtree()"
    ),
    "COLRTreeConfig.cache_capacity": Seen(
        "src/repro/bench/fig5.py", "with_cache_capacity(capacity)"
    ),
    "COLRTreeConfig.oversampling_enabled": Seen(
        "src/repro/bench/ablations.py", "oversampling_enabled=enabled"
    ),
    "COLRTreeConfig.redistribution_enabled": Seen(
        "src/repro/bench/ablations.py", "redistribution_enabled=enabled"
    ),
    "COLRTreeConfig.reversible_aggregates": Seen(
        "src/repro/bench/ablations.py", "reversible_aggregates=enabled"
    ),
    "COLRTreeConfig.plan_cache_size": Kept(
        "bench/traversal.py sizes it to max(256, 2 * (regions + polygons)),"
        " above the default at full scale only"
    ),
    "COLRTreeConfig.seed": Seen("src/repro/bench/fig7.py", "replace(config, seed=seed)"),
    # Probe transport.
    "TransportConfig.max_retries": Seen("src/repro/bench/transport.py", "max_retries=1"),
    "TransportConfig.inflight_ttl": Seen(
        "src/repro/bench/transport.py", "inflight_ttl=STALENESS"
    ),
    "TransportConfig.cooldown_seconds": Seen(
        "src/repro/bench/transport.py", "cooldown_seconds=600.0"
    ),
    "TransportConfig.overlap_enabled": Seen(
        "src/repro/portal/portal.py", "TransportConfig.parity()"
    ),
    "TransportConfig.seed": Kept("an RNG input, like a workload seed"),
    # Federation.
    "FederationConfig.shard_retry_budget": Seen(
        "src/repro/bench/federation.py", "shard_retry_budget=0"
    ),
    "FederationConfig.redistribution_rounds": Seen(
        "src/repro/bench/federation.py", "redistribution_rounds=0"
    ),
    "FederationConfig.execution": Seen(
        "src/repro/bench/parallel.py", 'execution="process"'
    ),
    # Front door.
    "FrontDoorConfig.l1_capacity": Seen("src/repro/bench/frontdoor.py", "l1_capacity=0"),
    "FrontDoorConfig.l2_enabled": Seen("src/repro/bench/frontdoor.py", "l2_enabled=False"),
    "FrontDoorConfig.admission": Seen(
        "src/repro/bench/frontdoor.py", "admission=admission"
    ),
    "AdmissionConfig.enabled": Seen(
        "src/repro/bench/frontdoor.py", "AdmissionConfig(enabled=False)"
    ),
    "AdmissionConfig.tenant_rate_qps": Seen(
        "src/repro/bench/frontdoor.py", "tenant_rate_qps=2.0 * sustainable_qps"
    ),
    "AdmissionConfig.tenant_burst": Seen(
        "src/repro/bench/frontdoor.py", "tenant_burst=max(2.0, queue_depth / 4)"
    ),
    "AdmissionConfig.queue_depth": Seen(
        "src/repro/bench/frontdoor.py", "queue_depth=queue_depth"
    ),
    # Storage.
    "StorageConfig.data_dir": Seen(
        "src/repro/bench/storage.py", "StorageConfig(data_dir=data_dir)"
    ),
    "StorageConfig.fsync_enabled": Kept(
        "the host's durability posture, a deployment setting"
    ),
    # Rebalancing.
    "RebalanceConfig.max_moves_per_step": Seen(
        "src/repro/bench/rebalance.py", "max_moves_per_step=max(8, n_sensors // 20)"
    ),
    "RebalanceConfig.imbalance_tolerance": Seen(
        "benchmarks/e2e/workloads.py", "imbalance_tolerance=0.05"
    ),
    # Geoblocks.
    "GeoBlockConfig.cell_degrees": Seen(
        "src/repro/bench/geoblocks.py", "GeoBlockConfig(cell_degrees=CELL_DEGREES)"
    ),
    "GeoBlockConfig.max_cells_per_query": Kept(
        "ROADMAP item 11 decides the geoblocks package as a whole"
    ),
    # The relational implementation's trigger state.
    "MaintenanceConfig.slot_seconds": Seen(
        "src/repro/relcolr/tree.py", "slot_seconds=self.config.slot_seconds"
    ),
    "MaintenanceConfig.n_slots": Seen(
        "src/repro/relcolr/tree.py", "n_slots=self.config.n_slots"
    ),
    "MaintenanceConfig.cache_capacity": Kept(
        "the relational triggers' cache-size constraint, ROADMAP item 1(b)'s"
        " per-reading cross-check"
    ),
}


def config_classes() -> dict[str, list[str]]:
    """Module name -> the ``*Config`` dataclasses it defines, found by
    parsing ``src/repro`` (nothing is imported)."""
    found: dict[str, list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            ):
                module = ".".join(path.relative_to(SRC).with_suffix("").parts)
                found.setdefault(module, []).append(node.name)
    return found


def all_fields() -> list[str]:
    """Every ``Class.field`` of the config dataclasses, in source order."""
    keys = []
    for module, names in config_classes().items():
        for name in names:
            cls = getattr(importlib.import_module(module), name)
            keys += [f"{name}.{f.name}" for f in dataclasses.fields(cls)]
    return keys


def test_every_field_has_a_row():
    fields = all_fields()
    assert len(fields) == len(set(fields)), "two config classes share a name"
    assert sorted(fields) == sorted(SURFACE)


def test_the_surface_is_39_fields_over_nine_classes():
    assert sum(map(len, config_classes().values())) == 9
    assert len(all_fields()) == 39


def test_each_credited_caller_sets_its_field():
    for key, row in SURFACE.items():
        if isinstance(row, Seen):
            assert row.how in (REPO / row.caller).read_text(), key

