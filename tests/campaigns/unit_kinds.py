"""Tiny unit executors used by the campaign runner tests.

Importable as ``tests.campaigns.unit_kinds:<fn>`` so worker processes
can resolve them under any multiprocessing start method.  Besides the
pure kinds, ``crash``/``sleep``/``flaky`` misbehave on purpose: they
exercise the runner's crash isolation, per-unit timeout and retry.
"""

import os
import time
from pathlib import Path

import numpy as np


def square(params, seed):
    """Deterministic arithmetic on the params."""
    return {"value": int(params["x"]) ** 2, "seed": seed}


def seeded_draw(params, seed):
    """A seeded random draw — same seed, same result, any worker."""
    rng = np.random.default_rng(seed)
    return {"draws": [float(v) for v in rng.random(int(params["n"]))]}


def boom(params, seed):
    """Always fails."""
    raise RuntimeError(f"boom on x={params.get('x')}")


def ok(params, seed):
    """A well-behaved unit: returns its input and seed."""
    return {"value": params.get("x", 0), "seed": seed}


def crash(params, seed):
    """Kill the worker process outright (no exception, no cleanup).
    ``params["code"]`` sets the exit code (default 137, the SIGKILL
    convention)."""
    os._exit(int(params.get("code", 137)))


def sleep(params, seed):
    """Sleep ``params["seconds"]`` then return: a hung unit when the
    sleep exceeds the runner's per-unit timeout."""
    time.sleep(float(params.get("seconds", 60.0)))
    return {"slept": float(params.get("seconds", 60.0))}


def flaky(params, seed):
    """Fail the first ``params["fail_times"]`` attempts, then succeed.

    Attempts are counted in ``params["marker"]``, a directory the
    caller provides (one file per attempt, atomic under concurrent
    retries, unlike a read-modify-write counter file).
    """
    marker = Path(params["marker"])
    marker.mkdir(parents=True, exist_ok=True)
    attempt = len(list(marker.iterdir())) + 1
    (marker / f"attempt-{attempt}-{os.getpid()}").touch()
    if attempt <= int(params.get("fail_times", 1)):
        raise RuntimeError(f"flaky failure on attempt {attempt}")
    return {"attempts": attempt}
