"""Smoke tests of the benchmark harness (``pytest benchmarks/perf``).

``--quick`` runs every workload at n/10 with 2 repeats; the tests check
that each run emits every metric ``BENCHMARK.json`` names, with its
unit, passes all of its correctness oracles, and that the traced pass
measures every layer a workload exercises.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args: str, cwd: Path = ROOT, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def quick_json(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    proc = _run("--quick", "--workload", "all", "--json", str(out))
    assert proc.returncode == 0, proc.stderr[-4000:]
    results = _result_lines(proc.stdout)
    assert len(results) == len(WORKLOADS)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(v["value"] > 0 for v in res["metrics"].values())
    return out


def test_quick_emits_every_end_to_end_metric_and_passes_oracles(quick_json):
    record = json.loads(quick_json.read_text())
    assert sorted(record) == sorted(WORKLOADS)
    for rec in record.values():
        assert rec["checks"] and all(rec["checks"].values()), rec["failed_checks"]
        assert rec["host"]["nproc"] >= 1 and rec["commit"]


ZOO = ("eft-min", "srpt-ps", "nc-setup", "speed-eft")
SERVE_LAYERS = (
    "host.probe_ms", "protocol.decode_calls", "protocol.decode_us", "protocol.encode_calls", "protocol.encode_us",
    "dispatcher.submit_calls", "dispatcher.submit_us", "frontend.residual_us", "server.cpu_share",
)
#: per-layer metrics each workload exercises: a wrap that no longer
#: fires (or a wrap target that was renamed) leaves one of these at 0
EXERCISED = {
    "sim-array-100k": (
        "host.probe_ms", "workload.generate_s", "engine.add_instance_s", "engine.run_s", "engine.array_sync_s",
        "vecengine.lower_s", "vecengine.decide_s",
    ),
    "sim-zoo-faulted": (
        "host.probe_ms", "workload.generate_s", "engine.add_instance_s", "engine.run_s", "events.pops",
        "events.pop_s", "schedulers.preempted.srpt-ps",
        *(f"engine.loop_self_s.{p}" for p in ZOO),
        *(f"schedulers.submit_calls.{p}" for p in ZOO),
        *(f"schedulers.submit_s.{p}" for p in ZOO),
    ),
    "serve-saturated": SERVE_LAYERS,
    "serve-journaled": SERVE_LAYERS + (
        "journal.append_us", "journal.commit_us", "journal.records", "journal.recover_s",
        "journal.replayed", "serve.recovery_s",
    ),
}


def test_quick_trace_emits_and_exercises_every_per_layer_metric(tmp_path):
    out = tmp_path / "trace.json"
    proc = _run("--quick", "--workload", "all", "--trace", "1", "--json", str(out))
    assert proc.returncode == 0, proc.stderr[-4000:]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    results = _result_lines(proc.stdout)
    assert len(results) == len(WORKLOADS)
    for res in results:
        assert res["correct"], res
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    record = json.loads(out.read_text())
    assert sorted(record) == sorted(EXERCISED)
    for name, rec in record.items():
        assert rec["unavailable"] == [], (name, rec["unavailable"])
        idle = [k for k in EXERCISED[name] if not rec["stages"][k]["value"] > 0]
        assert not idle, (name, idle)
    assert record["serve-saturated"]["stages"]["journal.records"]["value"] == 0


def test_compare_against_itself_is_unchanged_or_unresolved(quick_json):
    proc = _run("--compare", str(quick_json), str(quick_json))
    assert proc.returncode == 0, proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[2:]]
    assert len(verdicts) == len(WORKLOADS) * len(BENCH["end_to_end"])
    assert set(verdicts) <= {"unchanged", "unresolved"}


def test_scale_refers_a_timing_to_the_reference_probe():
    import hostspeed

    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, ref, ref) == pytest.approx(2.0)
    assert hostspeed.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.measure() > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not _result_lines(proc.stdout)
