"""Golden-trace regression fixtures must reproduce byte-identically."""

import pytest

from repro.campaigns import goldens, replay_into
from repro.campaigns.goldens import GOLDEN_CASES, golden_path
from tests.oracles import GoldenMismatch, check_golden


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_checked_in_file_exists(self, name):
        assert golden_path(name).is_file()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_identical_reproduction(self, name):
        """EFT-Min / EFT-Rand rerun today must serialise to exactly the
        checked-in bytes (the satellite regression guarantee)."""
        trace = check_golden(name)
        assert trace.n > 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    @pytest.mark.parametrize("backend", ["reference", "auto"])
    def test_byte_identical_through_simulator_backends(self, name, backend):
        """Replaying a golden through the Simulator — on either
        backend — must serialise to exactly the checked-in bytes (the
        tentpole regression oracle; the EFT-Rand case exercises the
        silent reference fallback of the array path)."""
        trace = check_golden(name, backend=backend)
        assert trace.n > 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_replay_reproduces_placements(self, name):
        trace = goldens.load_golden(name)
        replayed = replay_into(GOLDEN_CASES[name].make_scheduler(), trace)
        assert trace.schedule().same_placements(replayed)

    def test_drift_detected(self, tmp_path, monkeypatch):
        """A tampered golden file must fail the check."""
        name = "eft-min-m4"
        tampered = tmp_path / "goldens"
        tampered.mkdir()
        original = golden_path(name).read_text()
        (tampered / f"{name}.trace.jsonl").write_text(original.replace('"machine": ', '"machine": 1 if 0 else '))
        monkeypatch.setattr(goldens, "GOLDEN_DIR", tampered)
        with pytest.raises(GoldenMismatch, match="drifted"):
            check_golden(name)

    def test_missing_file_detected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(goldens, "GOLDEN_DIR", tmp_path / "nowhere")
        with pytest.raises(GoldenMismatch, match="missing"):
            check_golden("eft-min-m4")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown golden"):
            golden_path("no-such-golden")
