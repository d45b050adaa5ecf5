"""The compare-schedulers grid: determinism and traces."""

import pytest

from repro.campaigns.trace import load as load_trace
from repro.schedulers import CompareConfig, compare_cell, render_table, run_compare
from repro.schedulers.compare import DEFAULT_POLICIES, sanity_check

SMALL = CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=1)


class TestDeterminism:
    def test_identical_configs_identical_output(self):
        a = run_compare(SMALL)
        b = run_compare(SMALL)
        assert a["rows"] == b["rows"]
        assert a["text"] == b["text"]

    def test_rows_cover_grid_in_order(self):
        out = run_compare(SMALL)
        assert [(r["policy"], r["load"]) for r in out["rows"]] == [
            (p, 0.8) for p in DEFAULT_POLICIES
        ]
        for row in out["rows"]:
            assert row["n_completed"] == SMALL.n
            assert 0.0 < row["utilization"] <= 1.0

    def test_policies_see_the_same_instance(self):
        """Every cell runs the identical seeded workload: fault-free,
        work-conserving policies on identical machines finish the same
        total work, so n_completed agrees across the whole grid."""
        config = CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=1, faults=False)
        out = run_compare(config)
        assert {r["n_completed"] for r in out["rows"]} == {60}

    def test_seed_changes_output(self):
        a = run_compare(SMALL)
        b = run_compare(CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=4))
        assert a["rows"] != b["rows"]

    def test_only_preemptive_policies_preempt(self):
        out = run_compare(SMALL)
        for row in out["rows"]:
            if row["policy"] != "srpt-ps":
                assert row["n_preempted"] == 0

    def test_faults_actually_fire(self):
        out = run_compare(SMALL)
        assert any(r["n_requeued"] > 0 for r in out["rows"])


class TestSanity:
    def test_srpt_at_most_eft_and_line_greppable(self):
        out = run_compare(SMALL)
        s = out["sanity"]
        assert s["ok"] is True
        assert s["srpt_mean_flow"] <= s["eft_mean_flow"] + 1e-9
        assert "sanity identical-machines fault-free" in out["text"]
        assert out["text"].rstrip().endswith("OK")

    def test_sanity_is_fault_free(self):
        # same instance, faults on/off: the sanity numbers must not move
        with_faults = sanity_check(SMALL)
        without = sanity_check(
            CompareConfig(m=4, n=60, k=2, loads=(0.8,), seed=1, faults=False)
        )
        assert with_faults == without


class TestTable:
    def test_renders_all_rows_fixed_width(self):
        out = run_compare(SMALL)
        lines = out["table"].splitlines()
        assert len(lines) == 2 + len(out["rows"])  # header + rule + rows
        assert lines[0].startswith("load")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_stable_bytes_for_equal_rows(self):
        rows = run_compare(SMALL)["rows"]
        assert render_table(rows) == render_table([dict(r) for r in rows])


class TestTraces:
    def test_cells_emit_replayable_traces(self, tmp_path):
        row = compare_cell(SMALL, "srpt-ps", 0.8, trace_dir=tmp_path)
        path = tmp_path / "compare_srpt-ps_load0.8.trace.jsonl"
        assert row["trace"] == str(path)
        trace = load_trace(path)
        assert trace.scheduler == "SRPT-PS"
        assert trace.meta["experiment"] == "compare-schedulers"
        sched = trace.schedule()  # validates placements
        assert len(sched) == SMALL.n

    def test_trace_bytes_stable_across_runs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        compare_cell(SMALL, "nc-setup", 0.8, trace_dir=tmp_path / "a")
        compare_cell(SMALL, "nc-setup", 0.8, trace_dir=tmp_path / "b")
        name = "compare_nc-setup_load0.8.trace.jsonl"
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
