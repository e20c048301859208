"""The paper's figures and the design ablations: each bench runs once at
quick scale through the one runner (``python -m repro.bench NAME
--quick`` runs the same thing).

``test_pins[name]`` holds every modeled leaf to
``tests/data/bench_quick_pins.json`` — the figure drivers' own output at
this scale before they joined the runner — so a change that moves a
figure's number fails here.  ``test_check[name-check]`` asserts one of
the figure's claims; the numbers it reads are the figure's phases,
printed when it fails.  Figure 3's cached-work claim is known false
(EXPERIMENTS.md, Figure 3).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.bench import runner

PINS = json.loads(
    (Path(__file__).parents[1] / "tests" / "data" / "bench_quick_pins.json").read_text()
)


@functools.cache
def artifact(name: str) -> dict:
    return runner.run_bench(runner.load(name), quick=True)


@pytest.mark.parametrize("name", runner.FIGURES)
def test_pins(name):
    got = artifact(name)
    assert runner.deterministic({k: got[k] for k in ("params", "phases", "checks")}) == (
        PINS[name]
    )


@pytest.mark.parametrize(
    "name, check",
    [(name, check) for name in runner.FIGURES for check in PINS[name]["checks"]],
)
def test_check(name, check):
    got = artifact(name)
    numbers = {
        phase: {k: v for k, v in body.items() if not isinstance(v, (dict, list))}
        for phase, body in got["phases"].items()
    }
    assert got["checks"][check], json.dumps(numbers, indent=1)
