"""The committed artifacts: the repository root holds exactly one
full-scale ``BENCH_<name>.json`` per registered bench, all in the one
schema, none recording a failed gate."""

from __future__ import annotations

import json

import pytest

from repro.bench import runner


def test_root_holds_exactly_one_artifact_per_registered_bench():
    found = sorted(p.name for p in runner.REPO_ROOT.glob("BENCH_*.json"))
    assert found == sorted(f"BENCH_{name}.json" for name in runner.NAMES)


@pytest.mark.parametrize("name", runner.NAMES)
def test_committed_artifact_is_full_scale_on_schema_and_green(name):
    artifact = json.loads((runner.REPO_ROOT / f"BENCH_{name}.json").read_text())
    runner.validate(artifact)
    assert artifact["benchmark"] == name
    assert artifact["scale"] == "full"
    # Tuples in the registered parameter set are lists once serialised.
    assert artifact["params"] == json.loads(json.dumps(runner.load(name).full))
    assert [gate for gate, ok in artifact["checks"].items() if ok is False] == []
