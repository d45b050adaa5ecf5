"""The simulator workloads, run inside a fresh worker process.

``sim-array-100k``
    Plain EFT-Min, m=100, k=3 overlapping sets, load 0.7, 100,000 unit
    tasks through ``Simulator(backend="auto")``, which must take the
    array path.  It loads lowering, ``eft_decide``, the state sync and
    the event-queue fill of ``add_instance``, and bypasses the
    per-event loop, the zoo policies, faults and the serve tier.
``sim-zoo-faulted``
    EFT-Min, SRPT-PS, NC-Setup and Speed-EFT on one instance (m=50,
    k=3, exponential sizes, load 0.9, 5,000 tasks) under a seeded
    chaos fault schedule on machines 1-4, so every run takes the
    reference event loop.  It loads per-event dispatch, each policy's
    ``choose``/``exec_time``, preemption and failure redispatch, and
    bypasses ``core.vecengine``.

Timed region of a repeat: ``Simulator.add_instance`` + ``Simulator.run``
(every policy in turn, for the zoo).  ``setup_s`` is the cold set-up a
user pays on every run: a fresh interpreter from spawn until the
imports, ``generate_workload``, the fault schedule and the
``Simulator`` construction are done.  Both are timed between two host
speed probes and reported at the reference speed (see :mod:`hostspeed`).
The traced pass wraps the layers' entry points from here (see
:mod:`spans`); the untraced pass runs the program untouched.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import hostspeed
import repro.simulation.engine as engine_mod
from repro.core.task import Instance
from repro.faults.schedule import chaos_schedule
from repro.schedulers.registry import get_scheduler
from repro.simulation.engine import Simulator
from repro.simulation.events import EventQueue
from repro.simulation.workload import WorkloadSpec, generate_workload
from spans import SpanRecorder, sum_by_name

ZOO_POLICIES = ("eft-min", "srpt-ps", "nc-setup", "speed-eft")

WORKLOADS: dict[str, dict[str, Any]] = {
    "sim-array-100k": {"m": 100, "k": 3, "lam": 70.0, "n": 100_000, "size_dist": "unit"},
    "sim-zoo-faulted": {
        "m": 50, "k": 3, "lam": 45.0, "n": 5_000, "size_dist": "exp",
        "mtbf": 15.0, "mttr": 3.0, "down": (1, 2, 3, 4),
    },
}
#: tasks of the reference-backend prefix oracle: EFT is online, so the
#: first P decisions of the full run must equal a run of the P-prefix
ARRAY_ORACLE_PREFIX = 20_000
#: cold set-ups timed per run; ``setup_s`` is their median
SETUPS = 5
MAX_REPEATS = 200

clock = time.perf_counter


class SimWorkload:
    """Inputs, one timed repeat and the oracles of a simulator workload."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.seed = seed
        self.cfg = cfg = WORKLOADS[name]
        self.array = "down" not in cfg
        self.n = cfg["n"] // 10 if quick else cfg["n"]
        self.spec = WorkloadSpec(
            m=cfg["m"], n=self.n, lam=cfg["lam"], k=cfg["k"],
            strategy="overlapping", size_dist=cfg["size_dist"],
        )
        self.policies = ("eft-min",) if self.array else ZOO_POLICIES
        self.instance: Any = None
        self.faults: Any = None

    def _make_sim(self, policy: str, backend: str = "auto") -> Any:
        scheduler = get_scheduler(policy, self.cfg["m"], seed=self.seed)
        return Simulator(scheduler, faults=self.faults, backend=backend)

    def build(self) -> float:
        """Build the inputs and the simulators once; returns the
        ``generate_workload`` seconds."""
        t0 = clock()
        self.instance = generate_workload(self.spec, rng=self.seed)
        t_gen = clock() - t0
        if not self.array:
            cfg = self.cfg
            self.faults = chaos_schedule(
                cfg["m"], self.instance.tasks[-1].release + 1.0,
                mtbf=cfg["mtbf"], mttr=cfg["mttr"], seed=self.seed,
                machines=list(cfg["down"]),
            )
        for policy in self.policies:
            self._make_sim(policy)
        return t_gen

    def repeat(self, rec: SpanRecorder | None = None) -> dict[str, Any]:
        """Run every policy once over the instance.  Returns the timed
        wall at the reference host speed (each policy's run is scaled by
        the probes on either side of it: the host's speed phases can be
        shorter than a repeat), the mean probe, the simulators and
        results, and (traced) the layer split."""
        sims = {p: self._make_sim(p) for p in self.policies}
        layer: dict[str, float] = {}
        if rec is not None:
            for policy, sim in sims.items():
                rec.wrap(sim.scheduler, "submit", f"schedulers.submit.{policy}")
                rec.wrap(sim, "_park", f"faults.park.{policy}")
        gc.collect()
        wall = 0.0
        results = {}
        probes = [hostspeed.measure()]
        for policy, sim in sims.items():
            t0 = clock()
            sim.add_instance(self.instance)
            t1 = clock()
            results[policy] = sim.run()
            t2 = clock()
            probes.append(hostspeed.measure())
            wall += hostspeed.scale(t2 - t0, probes[-2], probes[-1])
            if rec is not None:
                rec.mark("engine.add_instance", t0, t1, policy)
                rec.mark("engine.run", t1, t2, policy)
                _split(layer, policy, sum_by_name(rec.spans))
                rec.spans.clear()
        probe = sum(probes) / len(probes)
        return {"wall": wall, "probe": probe, "sims": sims, "results": results, "layer": layer}

    def failures(self, rep: dict[str, Any]) -> tuple[int, list[str]]:
        """Uncompleted tasks and failed per-repeat checks of ``rep``."""
        lost, bad = 0, []
        for policy, res in rep["results"].items():
            if res.n_completed != self.n or res.n_pending or res.n_parked:
                lost += self.n - res.n_completed
                bad.append(f"{policy}.all_completed")
            if self.array and rep["sims"][policy].backend_used != "array":
                bad.append("backend_used==array")
        return lost, bad

    def digest(self, sim: Any) -> str:
        """SHA-256 over every task's machine and completion time."""
        h = hashlib.sha256()
        machines, completions = sim.assigned_machine, sim.completions
        for task in self.instance:
            h.update(f"{task.tid}:{machines.get(task.tid)}:{completions.get(task.tid)!r};".encode())
        return h.hexdigest()

    def prefix_oracle(self, sim: Any) -> bool:
        """The array run's first placements equal a reference-backend
        run of that prefix."""
        prefix = Instance(m=self.cfg["m"], tasks=self.instance.tasks[:ARRAY_ORACLE_PREFIX])
        ref = self._make_sim("eft-min", backend="reference")
        ref.add_instance(prefix)
        ref.run()
        am, st = sim.assigned_machine, sim.starts
        rm, rs = ref.assigned_machine, ref.starts
        return all(am[t.tid] == rm[t.tid] and st[t.tid] == rs[t.tid] for t in prefix)


def _split(layer: dict[str, float], policy: str, sums: dict[str, tuple[int, float]]) -> None:
    """Fold one policy run's span sums into the repeat's layer split."""

    def calls(name: str) -> int:
        return sums.get(name, (0, 0.0))[0]

    def total(name: str) -> float:
        return sums.get(name, (0, 0.0))[1]

    def add(key: str, value: float) -> None:
        layer[key] = layer.get(key, 0.0) + value

    run_s, pop_s = total("engine.run"), total("events.pop")
    lower, decide = total("vecengine.lower"), total("vecengine.decide")
    submit_s = total(f"schedulers.submit.{policy}")
    add("engine.add_instance_s", total("engine.add_instance"))
    add("engine.run_s", run_s)
    add("vecengine.lower_s", lower)
    add("vecengine.decide_s", decide)
    add("events.pops", calls("events.pop"))
    add("events.pop_s", pop_s)
    if calls("vecengine.decide"):
        add("engine.array_sync_s", run_s - lower - decide)
    else:
        layer[f"engine.loop_self_s.{policy}"] = run_s - pop_s - submit_s
    layer[f"schedulers.submit_calls.{policy}"] = calls(f"schedulers.submit.{policy}")
    layer[f"schedulers.submit_s.{policy}"] = submit_s
    layer[f"faults.parked.{policy}"] = calls(f"faults.park.{policy}")


def cold_setups(name: str, seed: int, quick: bool) -> tuple[list[float], list[float]]:
    """Time :data:`SETUPS` fresh processes from spawn until their inputs
    and simulators are built (``run.py --setup-probe``); returns those
    times at the reference host speed and each child's
    ``generate_workload`` seconds."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe", name,
           "--seed", str(seed)] + (["--quick"] if quick else [])
    setups, gens = [], []
    for _ in range(SETUPS):
        before = hostspeed.measure()
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = clock() - t0
            if child.wait(timeout=120) != 0 or not line.startswith("ready "):
                raise RuntimeError(f"set-up probe for {name} failed: {line!r}")
        setups.append(hostspeed.scale(elapsed, before, hostspeed.measure()))
        gens.append(float(line.split()[1]))
    return setups, gens


def probe(name: str, seed: int, quick: bool) -> None:
    """Body of a set-up probe process: build, report, exit."""
    t_gen = SimWorkload(name, seed, quick).build()
    print(f"ready {t_gen!r}", flush=True)


def install_wraps(rec: SpanRecorder) -> None:
    """Wrap the module-level layer entry points where the engine looks
    them up (it imports the vecengine functions by name)."""
    rec.wrap(engine_mod, "lower_eligibility", "vecengine.lower")
    rec.wrap(engine_mod, "eft_decide", "vecengine.decide")
    rec.wrap(EventQueue, "pop", "events.pop")


def run(name: str, seed: int, seconds: float, repeats: int, trace: bool, quick: bool) -> dict[str, Any]:
    """Worker-process body of a simulator workload: set-up, the untimed
    warm-up repeat, the measured repeats (then, with ``trace``, the
    traced repeats), and the oracles."""
    setups, gens = cold_setups(name, seed, quick)
    work = SimWorkload(name, seed, quick)
    work.build()
    per_repeat = work.n * len(work.policies)
    attempted = failed = 0
    bad: set[str] = set()
    flows: dict[str, set[float]] = {p: set() for p in work.policies}
    digests: list[dict[str, str]] = []

    def one(rec: SpanRecorder | None) -> dict[str, Any]:
        nonlocal attempted, failed
        rep = work.repeat(rec)
        lost, failing = work.failures(rep)
        attempted += per_repeat
        failed += lost
        bad.update(failing)
        for policy, res in rep["results"].items():
            flows[policy].add(res.max_flow)
        return rep

    def measure(budget: float, rec: SpanRecorder | None) -> tuple[list[dict[str, Any]], dict]:
        """A discarded warm-up repeat (the first repeat in a fresh
        process runs slow), then repeats until ``repeats`` ran and
        ``budget`` seconds passed."""
        one(rec)
        reps: list[dict[str, Any]] = []
        t_end = clock() + budget
        while len(reps) < repeats or (clock() < t_end and len(reps) < MAX_REPEATS):
            rep = one(rec)
            if not reps:
                digests.append({p: work.digest(s) for p, s in rep["sims"].items()})
            reps.append({"wall": rep["wall"], "probe": rep["probe"], "layer": rep["layer"]})
        digests.append({p: work.digest(s) for p, s in rep["sims"].items()})
        return reps, rep

    untraced, last = measure(seconds / 2 if trace else seconds, None)
    walls = [r["wall"] for r in untraced]
    e2e = {
        "setup_s": setups,
        "ops_per_s": [per_repeat / w for w in walls],
        "latency_p50_ms": [w * 1e3 for w in walls],
    }
    layers: dict[str, float] = {}
    unavailable: list[str] = []
    if trace:
        rec = SpanRecorder()
        install_wraps(rec)
        traced, _ = measure(seconds / 2, rec)
        keys = sorted({k for r in traced for k in r["layer"]})
        layers = {k: statistics.median(r["layer"].get(k, 0.0) for r in traced) for k in keys}
        layers["trace.overhead_share"] = (
            statistics.median(r["wall"] for r in traced) / statistics.median(walls) - 1.0
        )
        unavailable = rec.unavailable
    layers["host.probe_ms"] = statistics.median(r["probe"] for r in untraced) * 1e3
    layers["workload.generate_s"] = statistics.median(gens)
    layers["decision.flow_max"] = max(max(f) for f in flows.values())
    for policy, res in last["results"].items():
        layers[f"faults.requeued.{policy}"] = res.n_requeued
    if "srpt-ps" in last["results"]:
        layers["schedulers.preempted.srpt-ps"] = last["results"]["srpt-ps"].n_preempted

    checks = {
        "all_tasks_completed": not any(b.endswith("all_completed") for b in bad),
        "flow_max_identical_across_repeats": all(len(f) == 1 for f in flows.values()),
        "decision_digests_agree_across_repeats": all(d == digests[0] for d in digests),
    }
    if work.array:
        checks["backend_used==array"] = "backend_used==array" not in bad
        checks["prefix_equals_reference"] = work.prefix_oracle(last["sims"]["eft-min"])
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "e2e": e2e,
        "layers": layers,
        "unavailable": unavailable,
        "repeats": len(untraced),
        "digests": digests[-1],
        "info": {"n": work.n, "m": work.cfg["m"], "policies": list(work.policies)},
    }
