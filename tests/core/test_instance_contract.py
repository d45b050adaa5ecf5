"""``Instance`` keeps the contract of sort-then-validate.

``Instance.__post_init__`` skips the sort when the tasks already come
in ``(release, tid)`` order and tells a valid list by its distinct
sets and tids alone.  Neither shortcut may show: for any task list it
must give the same ``tasks`` tuple, or raise the same ``ValueError``
message, as the plain code kept below.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Task


def reference(m: int, tasks) -> tuple[Task, ...]:
    """Sort by ``(release, tid)``, then reject the first duplicate tid or
    out-of-range set, in sorted order."""
    tasks = tuple(sorted(tasks, key=lambda t: (t.release, t.tid)))
    seen: set[int] = set()
    for t in tasks:
        if t.tid in seen:
            raise ValueError(f"duplicate task id {t.tid}")
        seen.add(t.tid)
        if t.machines is not None and max(t.machines) > m:
            raise ValueError(f"task {t.tid}: processing set {sorted(t.machines)} exceeds m={m}")
    return tasks


#: shared set objects, as the generators hand out; indices up to 6 so
#: that some exceed a drawn ``m``
SHARED = tuple(frozenset(s) for s in ({1}, {2, 3}, {1, 4}, {5}, {3, 6}))

machine_sets = st.one_of(
    st.none(),
    st.sampled_from(SHARED),
    st.frozensets(st.integers(1, 6), min_size=1, max_size=3),
)
tasks = st.builds(
    Task,
    tid=st.integers(0, 12),
    release=st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5]),
    proc=st.just(1.0),
    machines=machine_sets,
)


def _outcome(build):
    """``("ok", ids of the built tasks)`` or ``("error", message)``."""
    try:
        return ("ok", [id(t) for t in build()])
    except ValueError as exc:
        return ("error", str(exc))


@given(
    m=st.integers(1, 6),
    task_list=st.lists(tasks, max_size=12),
    presort=st.booleans(),
    as_list=st.booleans(),
)
@settings(max_examples=400)
def test_instance_matches_sort_then_validate(m, task_list, presort, as_list):
    if presort:
        task_list.sort(key=lambda t: (t.release, t.tid))
    given_tasks = task_list if as_list else tuple(task_list)
    got = _outcome(lambda: Instance(m=m, tasks=given_tasks).tasks)
    assert got == _outcome(lambda: reference(m, task_list))


def test_shared_out_of_range_set_names_first_task_in_release_order():
    shared = frozenset({2, 5})
    late = Task(tid=0, release=3.0, proc=1.0, machines=shared)
    early = Task(tid=9, release=1.0, proc=1.0, machines=shared)
    with pytest.raises(ValueError, match=r"^task 9: processing set \[2, 5\] exceeds m=4$"):
        Instance(m=4, tasks=[late, early])
