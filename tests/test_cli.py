import json
import multiprocessing
from dataclasses import replace

import pytest

from repro.bench import runner
from repro.cli import build_parser, main


def run_figure(name, monkeypatch, tmp_path, capsys, **tiny):
    """``repro bench NAME --quick``, at ``tiny`` parameters when given;
    returns the printed summary."""
    bench = runner.load(name)
    if tiny:
        monkeypatch.setattr(runner, "load", lambda _: replace(bench, quick=tiny))
    assert main(["bench", name, "--quick", "--out", str(tmp_path)]) == 0
    artifact = json.loads((tmp_path / f"BENCH_{name}.json").read_text())
    assert artifact["benchmark"] == name and artifact["params"] == dict(
        tiny or bench.quick
    )
    out = capsys.readouterr().out
    assert f"{name} bench (quick): checks" in out
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_flags(self):
        args = build_parser().parse_args(["bench", "fig4", "--quick"])
        assert args.names == ["fig4"] and args.quick

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestExecution:
    def test_fig2_runs(self, monkeypatch, tmp_path, capsys):
        out = run_figure("fig2", monkeypatch, tmp_path, capsys)
        assert "fig2_optima_match_paper" in out and "optima" in out

    def test_fig3_runs_small(self, monkeypatch, tmp_path, capsys):
        out = run_figure(
            "fig3", monkeypatch, tmp_path, capsys, n_sensors=1200, n_queries=25
        )
        assert "mean_cached_work" in out

    def test_fig7_runs_small(self, monkeypatch, tmp_path, capsys):
        out = run_figure(
            "fig7", monkeypatch, tmp_path, capsys,
            sample_sizes=[5, 15, 50, 200], n_trials=2,
        )
        assert "mean_relative_error" in out

    def test_demo_runs(self, capsys):
        assert main(["demo", "--sensors", "500"]) == 0
        out = capsys.readouterr().out
        assert "indexed 500 sensors" in out
        assert "cold" in out and "warm" in out

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--shards", "4"], "federated 500 sensors across 4 shards"),
            (["--workers", "2"], "across 2 shards (2 worker processes)"),
            (["--qps", "20"], "front door over 500 sensors"),
            (["--churn", "--shards", "4"], "every sensor has exactly one owner"),
            (["--polygon"], "geoblock grid over 500 sensors"),
        ],
        ids=["shards", "workers", "qps", "churn", "polygon"],
    )
    def test_demo_variants_run(self, flags, expected, capsys):
        before = set(multiprocessing.active_children())
        assert main(["demo", "--sensors", "500", *flags]) == 0
        assert expected in capsys.readouterr().out
        # No worker process outlives the demo that forked it.
        assert set(multiprocessing.active_children()) <= before

    def test_durable_demo_warm_restarts(self, tmp_path, capsys):
        argv = ["demo", "--sensors", "500", "--data-dir", str(tmp_path / "data")]
        assert main(argv) == 0
        assert "cold start" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "warm restart: 500 sensors" in out
        assert "tick 0: probed    0 sensors" in out

    @pytest.mark.parametrize("partitioner", ["grid", "kmeans"])
    def test_shard_prints_the_directory_and_plan(self, partitioner, capsys):
        argv = ["shard", "--sensors", "500", "--partitioner", partitioner]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"{partitioner} partitioner: 500 sensors -> 4 shards" in out
        assert "scatter plan for viewport" in out


class TestMoreCommands:
    def test_fig5_runs_small(self, monkeypatch, tmp_path, capsys):
        quick = runner.load("fig5").quick
        out = run_figure(
            "fig5", monkeypatch, tmp_path, capsys, **{**quick, "n_sensors": 1200, "n_queries": 20}
        )
        assert "mean_probes" in out

    def test_fig6_runs_small(self, monkeypatch, tmp_path, capsys):
        quick = runner.load("fig6").quick
        out = run_figure(
            "fig6", monkeypatch, tmp_path, capsys, **{**quick, "n_sensors": 1200, "n_queries": 20}
        )
        assert "target_accuracy" in out


class TestBenchCommand:
    def test_bench_runs_through_the_one_runner(self, tmp_path, capsys):
        argv = ["bench", "traversal", "--quick", "--check", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "BENCH_traversal.json").exists()
        assert "traversal bench (quick): checks" in capsys.readouterr().out

    def test_figure_subcommands_are_gone(self):
        for old in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablations", "all"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([old])

    def test_forwarding_subcommands_are_gone(self):
        for old in ("transport", "federation", "frontdoor", "geoblocks", "rebalance"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([old, "--quick"])

    def test_storage_only_inspects(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["storage"])
        assert main(["storage", str(tmp_path)]) == 1
        assert "not a data directory" in capsys.readouterr().out
