"""Offline optimum cross-check: a MILP against the branch and bound.

``repro.offline.exact`` is the only exact :math:`F_{max}` oracle for
non-unit tasks, and the competitive-ratio tests rest on it.  This test
solves the same instances with an independent model on
``scipy.optimize.milp`` (HiGHS):

* ``x[i, j]`` binary for every machine ``j`` of :math:`\\mathcal{M}_i`,
  with :math:`\\sum_j x_{ij} = 1`;
* ``s_i >= r_i`` the start of task ``i`` and ``F >= s_i + p_i - r_i``;
* for every pair sharing a machine ``j``, an order binary ``y[i, k]``
  and the big-M disjunction "``i`` before ``k`` or ``k`` before ``i``"
  that binds only when both sit on ``j``;
* minimise ``F``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core import Instance, Task
from repro.offline import optimal_fmax


def milp_fmax(instance: Instance) -> float:
    tasks = list(instance.tasks)
    n = len(tasks)
    sets = [sorted(t.eligible(instance.m)) for t in tasks]
    horizon = max(t.release for t in tasks) + sum(t.proc for t in tasks)
    big = 2.0 * horizon

    # columns: x[i, j] ..., y[i, k] ..., s_0..s_{n-1}, F
    x = {(i, j): c for c, (i, j) in enumerate((i, j) for i in range(n) for j in sets[i])}
    pairs = [(i, k) for i, k in itertools.combinations(range(n), 2) if set(sets[i]) & set(sets[k])]
    y = {p: len(x) + c for c, p in enumerate(pairs)}
    s0 = len(x) + len(y)
    f = s0 + n
    width = f + 1

    rows, lo, hi = [], [], []

    def row(coefs: dict[int, float], lower: float, upper: float) -> None:
        a = np.zeros(width)
        for col, v in coefs.items():
            a[col] += v
        rows.append(a)
        lo.append(lower)
        hi.append(upper)

    for i, t in enumerate(tasks):
        row({x[i, j]: 1.0 for j in sets[i]}, 1.0, 1.0)
        row({s0 + i: 1.0, f: -1.0}, -np.inf, t.release - t.proc)
    for i, k in pairs:
        for j in set(sets[i]) & set(sets[k]):
            both = {x[i, j]: big, x[k, j]: big}
            # y = 1: i before k on j
            row({s0 + i: 1.0, s0 + k: -1.0, y[i, k]: big, **both}, -np.inf, 3 * big - tasks[i].proc)
            # y = 0: k before i on j
            row({s0 + k: 1.0, s0 + i: -1.0, y[i, k]: -big, **both}, -np.inf, 2 * big - tasks[k].proc)

    lower = np.zeros(width)
    upper = np.ones(width)
    for i, t in enumerate(tasks):
        lower[s0 + i], upper[s0 + i] = t.release, horizon
    lower[f], upper[f] = 0.0, horizon
    integrality = np.zeros(width)
    integrality[:s0] = 1
    cost = np.zeros(width)
    cost[f] = 1.0
    res = milp(
        cost,
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options={"mip_rel_gap": 1e-9},
    )
    assert res.success, res.message
    return float(res.fun)


def random_restricted(seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(3, 8))
    tasks = []
    for i in range(n):
        size = int(rng.integers(1, m + 1))
        machines = frozenset(int(j) for j in rng.choice(np.arange(1, m + 1), size=size, replace=False))
        tasks.append(
            Task(
                tid=i,
                release=float(rng.integers(0, 8)) / 2,
                proc=float(rng.integers(1, 9)) / 2,
                machines=machines,
            )
        )
    return Instance(m=m, tasks=tuple(tasks))


@pytest.mark.parametrize("seed", range(24))
def test_milp_matches_branch_and_bound(seed):
    inst = random_restricted(seed)
    assert milp_fmax(inst) == pytest.approx(optimal_fmax(inst), rel=1e-7, abs=1e-7)


def test_milp_sees_the_restriction():
    # two long tasks pinned to machine 1 queue behind each other although
    # machine 2 idles: OPT = 4 + 4 - 0 = 8, unrestricted it would be 4
    inst = Instance(
        m=2,
        tasks=(
            Task(tid=0, release=0.0, proc=4.0, machines=frozenset({1})),
            Task(tid=1, release=0.0, proc=4.0, machines=frozenset({1})),
        ),
    )
    assert milp_fmax(inst) == pytest.approx(8.0)
    assert optimal_fmax(inst) == pytest.approx(8.0)
