"""Host speed probe: scales each timed sample to a reference host speed.

On a shared host the same code runs up to twice as slow in phases that
last from seconds to minutes, and CPU time slows with wall time (the
loss is not steal).  A run can fall entirely inside one phase, so taking
medians inside a run cannot remove it.  The harness therefore times
:func:`measure`, a fixed pure-Python kernel that does not touch the
program, right before and right after every timed sample, on the CPU
that does the sample's work, and reports the sample as it would read on
a host where the kernel takes :data:`REFERENCE_S` (see :func:`scale`).

A change to the program moves the sample and not the probe, so a
scaled figure keeps every gain and regression of the program; a change
of host speed moves both and cancels.
"""

from __future__ import annotations

import gc
import heapq
import os
import time

__all__ = ["REFERENCE_S", "measure", "scale"]

#: probe seconds of the reference host that scaled figures refer to
REFERENCE_S = 0.010
_ITERATIONS = 10_000


def _kernel(n: int) -> int:
    """A miniature event loop: a heap of timed events, per-machine
    free times, float arithmetic and tuple traffic (the interpreter
    work the workloads do), on a working set that stays in cache."""
    heap: list[tuple[float, int, int]] = []
    free = [0.0] * 16
    books: list = [None] * 256
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, ((x % 1000) / 7.0 + i, i, x & 15))
        if len(heap) > 64:
            t, tid, m = heapq.heappop(heap)
            start = free[m] if free[m] > t else t
            free[m] = start + 1.5
            books[tid & 255] = (m, start)
    return sum(1 for b in books if b is not None)


def measure(cpu: int | None = None) -> float:
    """Seconds of one probe, on ``cpu`` if given (the calling thread
    moves there and back).  The collector is off while it runs, so the
    caller's heap does not enter the timing."""
    home = os.sched_getaffinity(0) if cpu is not None else None
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel(_ITERATIONS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
        if home is not None:
            os.sched_setaffinity(0, home)


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` as measured between probes ``before`` and ``after``,
    at the reference host speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
