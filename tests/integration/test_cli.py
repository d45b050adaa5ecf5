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
        ],
    )
    def test_chaos_only_flag_needs_chaos(self, tmp_path, monkeypatch, extra, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=flag):
            main(self.BASE + extra)
        assert not (tmp_path / "out.json").exists()
