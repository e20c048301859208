import multiprocessing

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_flags(self):
        args = build_parser().parse_args(["fig4", "--sensors", "1000", "--queries", "20"])
        assert args.sensors == 1000 and args.queries == 20

    def test_fig7_trials_flag(self):
        args = build_parser().parse_args(["fig7", "--trials", "3"])
        assert args.trials == 3

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestExecution:
    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "utility/cost" in out
        assert "optima" in out

    def test_fig3_runs_small(self, capsys):
        assert main(["fig3", "--sensors", "1200", "--queries", "25"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_fig7_runs_small(self, capsys):
        assert main(["fig7", "--trials", "2"]) == 0
        assert "Figure 7" in capsys.readouterr().out

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
    def test_fig5_runs_small(self, capsys):
        assert main(["fig5", "--sensors", "1200", "--queries", "20"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_fig6_runs_small(self, capsys):
        assert main(["fig6", "--sensors", "1200", "--queries", "20"]) == 0
        assert "Figure 6" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_runs_through_the_one_runner(self, tmp_path, capsys):
        argv = ["bench", "traversal", "--quick", "--check", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "BENCH_traversal.json").exists()
        assert "traversal bench (quick): checks" in capsys.readouterr().out

    def test_forwarding_subcommands_are_gone(self):
        for old in ("transport", "federation", "frontdoor", "geoblocks", "rebalance"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([old, "--quick"])

    def test_storage_only_inspects(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["storage"])
        assert main(["storage", str(tmp_path)]) == 1
        assert "not a data directory" in capsys.readouterr().out
