"""The bench spine, end to end: every subsystem bench runs at quick
scale through the one runner, lands in the one schema with no failed
gate, and reproduces the pinned modeled numbers exactly.

``tests/data/bench_quick_pins.json`` was generated on the commit
*before* the runner existed, from the nine hand-rolled ``main()``s'
``--quick`` output (keys mapped old -> new; CHANGES.md, PR 16, records
how); the figures' pins came the same way from the figure drivers'
output before they joined the runner (CHANGES.md, PR 43), and are
checked by ``benchmarks/test_figures.py``.  It is the regression gate on the paper-axis numbers — probes,
nodes, modeled seconds — and is silent on wall-clock: a leaf whose path
has a ``wall_`` component is host time, the ``stamp`` is attribution,
everything else must be equal.  Regenerate a bench's pins only for a
change that *means* to move a draw or an answer.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.report import git_fingerprint

PINS = json.loads(
    (Path(__file__).parents[1] / "data" / "bench_quick_pins.json").read_text()
)


def test_every_registered_bench_is_pinned():
    """The figures' pins are checked by ``benchmarks/test_figures.py``."""
    assert sorted(PINS) == sorted(runner.REGISTERED)


@pytest.mark.parametrize("name", runner.NAMES)
def test_quick_run_matches_schema_gates_and_pins(name, tmp_path, capsys):
    assert runner.main([name, "--quick", "--check", "--out", str(tmp_path)]) == 0
    artifact = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
    runner.validate(artifact)
    assert artifact["benchmark"] == name and artifact["scale"] == "quick"
    failed = [gate for gate, ok in artifact["checks"].items() if ok is False]
    assert not failed
    got = runner.deterministic({k: artifact[k] for k in ("params", "phases", "checks")})
    assert got == PINS[name]
    out = capsys.readouterr().out
    assert f"{name} bench (quick): checks" in out and "FAIL" not in out


class TestRunnerContract:
    def _fake(self, monkeypatch, checks, name="traversal"):
        bench = runner.Bench(
            name=name,
            full={"n": 2},
            quick={"n": 1},
            run=lambda n: {
                "phases": {"only": {"n": n, "wall_seconds": 0.5}},
                "checks": checks,
            },
        )
        monkeypatch.setattr(runner, "load", lambda name: bench)

    def test_failed_gate_is_recorded_before_the_exit_code(
        self, monkeypatch, tmp_path, capsys
    ):
        self._fake(monkeypatch, {"holds": True, "broken": False, "no_cores": None})
        argv = ["traversal", "--quick", "--out", str(tmp_path)]
        assert runner.main(argv) == 0  # reported, not enforced
        assert runner.main(argv + ["--check"]) == 1
        artifact = json.loads((tmp_path / "BENCH_traversal.json").read_text())
        assert artifact["checks"] == {"holds": True, "broken": False, "no_cores": None}
        assert artifact["params"] == {"n": 1}
        out = capsys.readouterr().out
        assert "FAIL: traversal: broken" in out and "skipped" in out

    def test_skipped_gate_does_not_fail_check(self, monkeypatch, tmp_path):
        self._fake(monkeypatch, {"holds": True, "no_cores": None})
        assert runner.main(["traversal", "--check", "--out", str(tmp_path)]) == 0
        artifact = json.loads((tmp_path / "BENCH_traversal.json").read_text())
        assert artifact["scale"] == "full" and artifact["params"] == {"n": 2}

    def test_quick_refuses_the_repository_root(self, monkeypatch):
        self._fake(monkeypatch, {"holds": True})
        with pytest.raises(SystemExit, match="refuses"):
            runner.main(["traversal", "--quick", "--out", str(runner.REPO_ROOT)])

    def test_a_figure_never_writes_the_repository_root(
        self, monkeypatch, tmp_path
    ):
        self._fake(monkeypatch, {"claim": False}, name="fig3")
        with pytest.raises(SystemExit, match="refuses"):
            runner.main(["fig3", "--out", str(runner.REPO_ROOT)])
        monkeypatch.chdir(tmp_path)
        assert runner.main(["fig3", "--check"]) == 1
        artifact = json.loads((tmp_path / "bench-out" / "BENCH_fig3.json").read_text())
        assert artifact["scale"] == "full" and artifact["checks"] == {"claim": False}

    @pytest.mark.parametrize("argv", [[], ["--all", "batch"], ["no-such-bench"]])
    def test_bad_selection_exits(self, argv, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(argv + ["--quick", "--out", str(tmp_path)])

    def test_validate_rejects_off_schema_artifacts(self):
        good = {
            "benchmark": "batch",
            "scale": "full",
            "params": {},
            "phases": {"p": {"x": 1}},
            "checks": {"g": True},
            "stamp": dict.fromkeys(runner.STAMP_KEYS),
        }
        runner.validate(good)
        for broken in (
            {**good, "extra": 1},
            {**good, "scale": "smoke"},
            {**good, "checks": {"g": "yes"}},
            {**good, "checks": {}},
            {**good, "phases": {"p": [1]}},
            {**good, "stamp": {}},
        ):
            with pytest.raises(ValueError):
                runner.validate(broken)


def test_rewriting_a_root_artifact_does_not_dirty_the_stamp(tmp_path):
    """Regenerating one tracked ``BENCH_*.json`` used to stamp the next
    bench of the same ``--all`` run ``git_dirty: true``."""

    def git(*argv):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "code.py").write_text("x = 1\n")
    (tmp_path / "BENCH_batch.json").write_text("{}\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    assert git_fingerprint(tmp_path / "src")["git_dirty"] is False
    (tmp_path / "BENCH_batch.json").write_text('{"regenerated": true}\n')
    assert git_fingerprint(tmp_path / "src")["git_dirty"] is False
    (tmp_path / "src" / "code.py").write_text("x = 2\n")
    assert git_fingerprint(tmp_path / "src")["git_dirty"] is True
