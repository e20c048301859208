"""The per-shard counters the e2e harness reads are there, on both
backends, and each block of a shard's ``stats()`` is its owner's.

``benchmarks/e2e/harness.py``'s ``shard_totals`` reads
``shard.get(group, {}).get(name, 0)``, so a counter that vanished from
``SensorMapPortal.stats()`` would read 0 there without an error.  Its
``SHARD_COUNTERS`` table is read from the file as a literal (the
harness imports its workload module from its own directory, so it is
not importable from here), and every ``(group, name)`` in it must be in
every shard's summary.  The transport block's ``attempts`` is the wire's
``probes_attempted``, read off the network: one count, two names.
"""

from __future__ import annotations

import ast
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.federation import FederatedPortal, FederationConfig
from repro.geometry import GeoPoint, Rect
from repro.portal import SensorQuery
from repro.storage import StorageConfig
from repro.transport import TransportConfig

HARNESS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "harness.py"


def shard_counters() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(HARNESS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SHARD_COUNTERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SHARD_COUNTERS in {HARNESS}")


def run(execution: str, data_dir: Path) -> FederatedPortal:
    """A durable two-shard federation under a configured transport, a
    few flaky ticks and a checkpoint, so every harness counter moves."""
    rng = np.random.default_rng(7)
    fed = FederatedPortal(
        n_shards=2,
        transport=TransportConfig(),
        storage=StorageConfig(data_dir),
        max_sensors_per_query=None,
        federation=FederationConfig(execution=execution),
    )
    for _ in range(200):
        fed.register_sensor(
            GeoPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 100))),
            expiry_seconds=float(rng.uniform(120, 600)),
            availability=float(rng.choice([0.3, 0.9])),
        )
    fed.rebuild_index()
    for _ in range(4):
        fed.execute_batch(
            [
                SensorQuery(region=Rect(0, 0, 70, 70), staleness_seconds=60.0),
                SensorQuery(
                    region=Rect(30, 30, 100, 100), staleness_seconds=60.0, sample_size=30
                ),
            ]
        )
        fed.clock.advance(45.0)
    fed.checkpoint()
    return fed


@pytest.mark.parametrize("execution", ["inprocess", "process"])
def test_every_harness_counter_is_in_every_shard_summary(execution, tmp_path):
    with run(execution, tmp_path) as fed:
        shards = fed.stats_summary()["shards"]
    assert len(shards) == 2
    for shard in shards.values():
        for group, names in shard_counters().items():
            missing = [name for name in names if name not in shard.get(group, {})]
            assert not missing, (group, missing)
        assert shard["network"]["probes_attempted"] > 0
        assert shard["transport"]["attempts"] == shard["network"]["probes_attempted"]
        assert shard["transport"]["retries"] > 0
        assert shard["storage"]["checkpoints"] == 1


def test_each_block_is_its_owner(tmp_path):
    """In process, each block equals ``asdict`` of the counters' owner;
    the process backend's workers report the same blocks."""
    with run("inprocess", tmp_path / "inprocess") as fed:
        shards = fed.stats_summary()["shards"]
        for i, portal in enumerate(fed.shards()):
            transport = portal.dispatcher.stats
            assert shards[i]["network"] == asdict(portal.network.stats)
            assert shards[i]["transport"] == asdict(transport) | {
                "attempts": portal.network.stats.probes_attempted,
                "dedup_hits": transport.dedup_hits,
            }
            assert shards[i]["storage"] == asdict(portal.storage.stats)
    with run("process", tmp_path / "process") as proc:
        remote = proc.stats_summary()["shards"]
    for i in shards:
        for group in ("network", "transport", "storage"):
            assert remote[i][group] == shards[i][group], (i, group)
