"""Tests for the experiment CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in (
            ["table1"],
            ["table2"],
            ["fig03"],
            ["fig08"],
            ["fig10", "--quick"],
            ["fig11", "--quick"],
            ["campaign", "fig11", "--quick"],
            ["replay", "--golden", "eft-min-m4"],
            ["ratios"],
            ["explore"],
            ["tails"],
            ["stability"],
            ["verify"],
            ["demo"],
        ):
            args = parser.parse_args(cmd)
            assert args.command == cmd[0]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--m", "15"]) == 0
        out = capsys.readouterr().out
        assert "FIFO" in out

    def test_fig08(self, capsys):
        assert main(["fig08", "--m", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "Worst-case" in out

    def test_fig03(self, capsys):
        assert main(["fig03", "--m", "6", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "w_tau" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 8 adversary" in out
        assert "Fmax" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--m", "8", "--k", "3", "--p", "100"]) == 0
        out = capsys.readouterr().out
        assert "Thm 8" in out

    def test_all_writes_directory(self, tmp_path, capsys, monkeypatch):
        """The batch runner writes one file per experiment (heavy
        campaigns monkeypatched to cheap stand-ins)."""
        from repro import experiments as exp
        from repro.cli import main
        from repro.experiments.common import TextTable

        def stub(*args, **kwargs):
            t = TextTable(title="stub", headers=["x"])
            t.add_row(1)
            return t

        for mod in (exp.fig10, exp.fig11, exp.table2, exp.tails, exp.stability, exp.verify, exp.ratios, exp.fig03):
            monkeypatch.setattr(mod, "run", stub)
        out_dir = tmp_path / "res"
        assert main(["all", "--out", str(out_dir)]) == 0
        written = {p.name for p in out_dir.glob("*.txt")}
        assert {"table1.txt", "fig08.txt", "fig10.txt", "fig11.txt", "verify.txt"} <= written
        assert "stub" in (out_dir / "fig10.txt").read_text()
        # the genuine (unpatched) experiments produced real tables
        assert "FIFO" in (out_dir / "table1.txt").read_text()

    def test_module_entry_point(self):
        """`python -m repro` imports cleanly (run in-process via
        runpy would exit; just verify the module exists)."""
        import importlib.util

        spec = importlib.util.find_spec("repro.__main__")
        assert spec is not None


class TestBenchServeFlags:
    """Chaos-only flags are refused without ``--chaos`` instead of being
    silently ignored by a clean drive."""

    BASE = ["bench-serve", "--m", "6", "--k", "2", "--strategy", "disjoint",
            "--rate", "400", "--n", "12", "--proc", "0.005", "--seed", "42"]

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--shards", "3", "--kill-shard", "0"], "--kill-shard"),
            (["--kill-shard", "0"], "--kill-shard"),
            (["--shards", "3", "--recovery-out", "out.json"], "--recovery-out"),
            (["--recovery-out", "out.json"], "--recovery-out"),
            (["--chaos"], "--chaos"),
            (["--shards", "3", "--chaos-seed", "7"], "--chaos-seed"),
            (["--shards", "3", "--chaos-drop", "0.5"], "--chaos-drop"),
            (["--shards", "3", "--chaos-truncate", "0.5"], "--chaos-truncate"),
            (["--shards", "3", "--chaos-corrupt", "0.5"], "--chaos-corrupt"),
            (["--shards", "3", "--chaos-duplicate", "0.5"], "--chaos-duplicate"),
            (["--shards", "3", "--chaos-latency", "0.1"], "--chaos-latency"),
            (["--shards", "3", "--kill-after", "0.9"], "--kill-after"),
            (["--chaos-drop", "0"], "--chaos-drop"),
            (["--kill-after", "0.5"], "--kill-after"),
        ],
    )
    def test_chaos_only_flag_needs_chaos(self, tmp_path, monkeypatch, extra, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=flag):
            main(self.BASE + extra)
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "extra, chaos, kill_after",
        [
            ([], dict(seed=0, p_drop=0.02, p_truncate=0.01, p_corrupt=0.02,
                      p_duplicate=0.05, latency=0.0), 0.5),
            (["--chaos-seed", "7", "--chaos-drop", "0", "--kill-after", "0.4"],
             dict(seed=7, p_drop=0.0, p_truncate=0.01, p_corrupt=0.02,
                  p_duplicate=0.05, latency=0.0), 0.4),
        ],
    )
    def test_chaos_runs_with_its_defaults(self, monkeypatch, extra, chaos, kill_after):
        """Under ``--chaos`` an omitted chaos flag takes the bench's mild
        fault mix, not ``ChaosConfig``'s all-zero defaults."""
        import repro.serve
        from repro.chaos import ChaosConfig

        seen = {}

        class _Result:
            def to_text(self):
                return "ok"

        def fake_run_loopback(instance, config, **kwargs):
            seen.update(kwargs)
            return _Result()

        monkeypatch.setattr(repro.serve, "run_loopback", fake_run_loopback)
        main(self.BASE + ["--shards", "3", "--chaos"] + extra)
        assert seen["chaos"] == ChaosConfig(**chaos)
        assert seen["kill_after"] == kill_after
