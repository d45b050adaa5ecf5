"""Interrupt + resume: partial manifests and cache-driven continuation."""

import json

import pytest

from repro.campaigns import (
    CampaignInterrupted,
    CampaignSpec,
    ResultCache,
    Unit,
    build_manifest,
    load_manifest,
    run_campaign,
    write_manifest,
)

OK = "tests.campaigns.unit_kinds:ok"


def ok_units(n):
    return [Unit(kind=OK, params={"x": i}, seed=i, label=f"ok-{i}") for i in range(n)]


def bomb_after(n):
    def progress(done, total, outcome):
        if done == n:
            raise KeyboardInterrupt

    return progress


class TestInterrupt:
    def test_interrupt_carries_partial_result(self):
        spec = CampaignSpec(name="part", units=tuple(ok_units(5)))
        with pytest.raises(CampaignInterrupted) as exc:
            run_campaign(spec, progress=bomb_after(2))
        partial = exc.value.result
        assert partial.interrupted
        assert partial.n_executed == 2
        assert partial.n_interrupted == 3
        assert "interrupted" in partial.summary()
        # Unresolved outcomes are typed, not missing.
        statuses = [o.status for o in partial.outcomes]
        assert statuses.count("interrupted") == 3
        for o in partial.outcomes:
            if o.status == "interrupted":
                assert o.attempts == 0 and o.result is None

    def test_interrupt_in_isolated_pool(self):
        spec = CampaignSpec(name="part2", units=tuple(ok_units(6)))
        with pytest.raises(CampaignInterrupted) as exc:
            run_campaign(spec, n_jobs=2, progress=bomb_after(3))
        partial = exc.value.result
        assert partial.interrupted
        assert partial.n_executed >= 3
        assert partial.n_executed + partial.n_interrupted == 6

    def test_partial_manifest_is_valid_and_flagged(self, tmp_path):
        spec = CampaignSpec(name="part3", units=tuple(ok_units(4)))
        with pytest.raises(CampaignInterrupted) as exc:
            run_campaign(spec, progress=bomb_after(2))
        manifest = build_manifest(exc.value.result)
        assert manifest.interrupted
        assert manifest.n_interrupted == 2
        path = write_manifest(manifest, tmp_path / "m.json")
        raw = json.loads(path.read_text())
        assert raw["version"] == 3
        back = load_manifest(path)
        assert back.interrupted and back.n_interrupted == 2
        assert {u["status"] for u in back.units} == {"executed", "interrupted"}


class TestResume:
    def test_resume_equals_uninterrupted_run(self, tmp_path):
        spec = CampaignSpec(name="res", units=tuple(ok_units(5)))
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(CampaignInterrupted):
            run_campaign(spec, cache=cache, progress=bomb_after(2))
        resumed = run_campaign(spec, cache=cache)
        assert resumed.n_cached == 2
        assert resumed.n_executed == 3
        fresh = run_campaign(spec)
        assert [o.result for o in resumed.outcomes] == [o.result for o in fresh.outcomes]
        # The post-resume manifest is complete and unflagged.
        manifest = build_manifest(resumed)
        assert not manifest.interrupted and manifest.n_interrupted == 0

    def test_second_resume_is_all_cached(self, tmp_path):
        spec = CampaignSpec(name="res2", units=tuple(ok_units(3)))
        cache = ResultCache(tmp_path / "cache")
        run_campaign(spec, cache=cache)
        again = run_campaign(spec, cache=cache)
        assert again.all_cached


class TestPreV3Manifests:
    def test_v2_manifest_still_loads(self, tmp_path):
        doc = {
            "format": "repro-manifest",
            "version": 2,
            "campaign": "old",
            "spec_hash": "ab" * 8,
            "git": "unknown",
            "started_at": "2026-01-01T00:00:00Z",
            "wall_time": 1.0,
            "n_jobs": 1,
            "n_units": 1,
            "n_executed": 1,
            "n_cached": 0,
            "n_failed": 0,
            "units": [{"hash": "ab" * 8, "label": None, "status": "executed", "duration": 1.0}],
            "meta": {},
            "timings": {},
        }
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        manifest = load_manifest(path)
        assert manifest.n_interrupted == 0
        assert not manifest.interrupted


class TestCliExitCodes:
    """Satellite: `repro campaign` exit codes and failure reporting."""

    @pytest.fixture
    def fake_campaign(self, monkeypatch):
        """Point the fig11 campaign builder at a tiny controllable spec."""
        from repro.experiments import fig11

        def install(units):
            spec = CampaignSpec(name="fig11", units=tuple(units))

            def build_campaign(**kw):
                def assemble(results):
                    class T:
                        @staticmethod
                        def to_text():
                            return f"assembled {len(results)} units"

                    return T

                return spec, assemble

            monkeypatch.setattr(fig11, "build_campaign", build_campaign)
            return spec

        return install

    def test_failure_exits_one_with_stderr_summary(self, fake_campaign, tmp_path, capsys):
        from repro.cli import main

        fake_campaign(ok_units(2) + [Unit(kind="tests.campaigns.unit_kinds:crash", params={}, seed=7, label="boom")])
        code = main([
            "campaign", "fig11", "-j", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "1 failed" in err
        assert "boom" in err
        # the partial manifest was still written (it is the resume point)
        assert load_manifest(tmp_path / "out" / "fig11.manifest.json").n_failed == 1

    def test_success_exits_zero(self, fake_campaign, tmp_path, capsys):
        from repro.cli import main

        fake_campaign(ok_units(2))
        code = main([
            "campaign", "fig11",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "assembled 2 units" in capsys.readouterr().out

    def test_resume_without_out_exits_two(self, fake_campaign, capsys):
        from repro.cli import main

        fake_campaign(ok_units(2))
        code = main(["campaign", "fig11", "--resume"])
        assert code == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_resume_missing_manifest_exits_two(self, fake_campaign, tmp_path, capsys):
        from repro.cli import main

        fake_campaign(ok_units(2))
        code = main([
            "campaign", "fig11", "--resume",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "nowhere"),
        ])
        assert code == 2
        assert "no manifest" in capsys.readouterr().err

    def test_resume_spec_mismatch_exits_two(self, fake_campaign, tmp_path, capsys):
        from repro.cli import main

        fake_campaign(ok_units(2))
        ok = main([
            "campaign", "fig11",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ])
        assert ok == 0
        capsys.readouterr()
        fake_campaign(ok_units(3))  # different spec, same manifest path
        code = main([
            "campaign", "fig11", "--resume",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "spec" in capsys.readouterr().err

    def test_resume_happy_path_all_cached(self, fake_campaign, tmp_path, capsys):
        from repro.cli import main

        fake_campaign(ok_units(2))
        assert main([
            "campaign", "fig11",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ]) == 0
        capsys.readouterr()
        code = main([
            "campaign", "fig11", "--resume",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "2 cached" in capsys.readouterr().out
