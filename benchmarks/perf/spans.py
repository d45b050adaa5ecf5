"""Spans recorded from outside the program, for the traced pass.

The benchmark never edits ``src/``: it times a layer by replacing the
attribute its caller looks up (a module function, a class method, an
instance's bound method) with a wrapper that records one span per call.
A span is ``(name, start, end, parent, req)``: ``start``/``end`` are
``time.perf_counter`` readings, ``parent`` names the enclosing span
kind (or ``None``) and ``req`` ties the spans of one request together
(the task id where the call reveals it).  Spans stay in memory and are
written out once, when the traced process ends.

A wrap target that a later refactor removed is reported as
*unavailable* instead of failing the run; its layer metrics then read
zero and the report names the missing target.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpanRecorder", "load_spans", "sum_by_name"]

Span = tuple[str, float, float, "str | None", "Any"]


class SpanRecorder:
    """In-memory span store plus the wrap helper that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: wrap targets that do not exist on this revision of the program
        self.unavailable: list[str] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        parent: str | None = None,
        req: Callable[[tuple, Any], Any] | None = None,
    ) -> bool:
        """Replace ``owner.attr`` by a timing wrapper; ``req(args,
        result)`` extracts the request id from the call's positional
        arguments or its result (``None`` if it raised).  Returns
        ``False`` (and records ``name`` as unavailable) when the target
        is missing."""
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.unavailable.append(name)
            return False
        target = getattr(owner, attr)
        if not callable(target):
            self.unavailable.append(name)
            return False
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            result = None
            t0 = clock()
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                spans.append((name, t0, clock(), parent, req(args, result) if req else None))

        # A classmethod/staticmethod looked up on the class is already
        # bound (or plain); keep it unbound-free so callers' call shape
        # is unchanged.
        static = isinstance(raw, (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        return True

    def mark(self, name: str, start: float, end: float, req: Any = None) -> None:
        """Record a span timed by the caller (a benchmark-side phase)."""
        self.spans.append((name, start, end, None, req))

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"unavailable": self.unavailable}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str | Path) -> tuple[list[Span], list[str]]:
    """Read a :meth:`SpanRecorder.dump` file back."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return spans, header["unavailable"]


def sum_by_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total seconds)``."""
    out: dict[str, tuple[int, float]] = {}
    for name, start, end, _parent, _req in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start))
    return out
