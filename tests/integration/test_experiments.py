"""The experiment harness runs and reproduces the paper's shapes
(reduced scales; the benchmarks run the paper-scale versions)."""

import numpy as np
import pytest

from repro.experiments import fig03, fig08, fig10, fig11, ratios, table1, table2
from repro.theory import (
    eft_disjoint_ratio,
    eft_interval_lower_bound,
    fixed_k_lower_bound,
    inclusive_lower_bound,
    interval_any_lower_bound,
    nested_lower_bound,
)


class TestTable1:
    def test_renders(self):
        t = table1.run(15)
        text = t.to_text()
        assert "FIFO" in text
        assert "3 - 2/m" in text
        assert len(t.rows) >= 10


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self):
        return table2.run(m=8, k=3, p=500)

    def test_all_rows_present(self, table):
        refs = " ".join(str(r[-1]) for r in table.rows)
        for thm in ("Thm 3", "Thm 4", "Thm 5", "Cor 1", "Thm 7", "Thm 8", "Thm 9", "Thm 10"):
            assert thm in refs

    def test_lower_bounds_nearly_achieved(self, table):
        for row in table.rows:
            structure, algo, kind, theory, achieved, ref = row
            if kind == ">=":
                assert float(achieved) > float(theory) * 0.97, row

    def test_upper_bound_respected(self, table):
        for row in table.rows:
            if row[2] == "<=":
                assert float(row[4]) <= float(row[3]) + 1e-9

    def test_theory_column_reads_the_closed_forms(self, table):
        """Every Theory cell is the ``repro.theory.bounds`` value at the
        table's (m, k) = (8, 3); it does not depend on p."""
        m, k = 8, 3
        expected = {
            "Thm 3": inclusive_lower_bound(m),
            "Thm 4": fixed_k_lower_bound(m, k),
            "Thm 5": nested_lower_bound(m),
            "Cor 1": eft_disjoint_ratio(k),
            "Thm 7": interval_any_lower_bound(),
            "Thm 8": eft_interval_lower_bound(m, k),
            "Thm 9": eft_interval_lower_bound(m, k),
            "Thm 10": eft_interval_lower_bound(m, k),
        }
        assert {row[-1]: row[3] for row in table.rows} == expected


class TestFig03:
    def test_trace(self):
        r = fig03.run(6, 3, steps=30)
        assert r.fmax == 4.0  # m - k + 1
        assert r.converged_at is not None
        assert np.allclose(r.profiles[r.converged_at], r.stable)
        assert "M1" in r.gantt
        assert "w_tau" in r.to_text()


class TestFig08:
    def test_three_cases(self):
        t = fig08.run(m=6)
        assert len(t.rows) == 3
        uniform_row = t.rows[0]
        assert all(v == 1.0 for v in uniform_row[1:-1])

    def test_worst_case_decreasing(self):
        t = fig08.run(m=6)
        worst_row = [float(x) for x in t.rows[1][1:-1]]
        assert worst_row == sorted(worst_row, reverse=True)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(
            m=10,
            s_values=np.array([0.0, 1.0, 1.5]),
            k_values=np.array([1, 3, 5, 10]),
            n_permutations=12,
            rng_seed=3,
        )

    def test_shapes(self, result):
        assert result.sweep.loads["overlapping"].shape == (3, 4)

    def test_overlapping_wins(self, result):
        assert np.all(result.sweep.ratio() >= 1 - 1e-9)
        assert result.peak_gain > 1.1

    def test_boundaries_equal(self, result):
        ratio = result.sweep.ratio()
        assert np.allclose(ratio[0], 1.0)  # s = 0 row
        assert np.allclose(ratio[:, -1], 1.0)  # k = m column

    def test_renders(self, result):
        text = result.to_text()
        assert "Figure 10b" in text
        assert "peak" in text


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.run(
            m=15,
            k=3,
            n=1500,
            repeats=3,
            loads={"uniform": (40, 80), "shuffled": (20, 45), "worst": (20, 45)},
            rng_seed=11,
        )

    def test_all_series_present(self, result):
        for case in ("uniform", "shuffled", "worst"):
            for strategy in ("overlapping", "disjoint"):
                for heuristic in ("EFT-Min", "EFT-Max"):
                    series = result.series(case, strategy, heuristic)
                    assert len(series) == 2

    def test_fmax_increases_with_load(self, result):
        for case in ("uniform", "shuffled", "worst"):
            for strategy in ("overlapping", "disjoint"):
                series = result.series(case, strategy, "EFT-Min")
                assert series[1][1] >= series[0][1]

    def test_overlapping_beats_disjoint_at_high_load(self, result):
        """The paper's experimental headline, visible even at reduced
        scale: at the top load of each facet overlapping's Fmax is no
        worse than disjoint's."""
        for case in ("uniform", "shuffled", "worst"):
            ov = dict(result.series(case, "overlapping", "EFT-Min"))
            dj = dict(result.series(case, "disjoint", "EFT-Min"))
            top = max(ov)
            assert ov[top] <= dj[top] + 1e-9

    def test_red_lines_match_paper(self, result):
        """LP max loads: ~100 uniform; ~66/52 shuffled; ~59/36 worst
        (within a few points — shuffled is a median over few repeats)."""
        lines = result.max_load_lines
        assert lines["uniform"]["overlapping"] == pytest.approx(100, abs=1)
        assert lines["uniform"]["disjoint"] == pytest.approx(100, abs=1)
        assert lines["worst"]["overlapping"] == pytest.approx(59, abs=2)
        assert lines["worst"]["disjoint"] == pytest.approx(36, abs=2)
        assert lines["shuffled"]["overlapping"] == pytest.approx(66, abs=12)
        assert lines["shuffled"]["disjoint"] == pytest.approx(52, abs=12)

    def test_table_renders(self, result):
        text = result.to_text()
        assert "Figure 11" in text
        assert "LP max load" in text


class TestRatios:
    def test_study_table(self):
        t = ratios.run(m=6, k=3, n=18, trials=6, rng_seed=2)
        assert len(t.rows) == 3
        # guarantee columns must hold for the two bounded settings
        unrestricted = t.rows[0]
        disjoint = t.rows[1]
        assert float(unrestricted[2]) <= 3 - 2 / 6 + 1e-9
        assert float(disjoint[2]) <= 3 - 2 / 3 + 1e-9
