"""Metric primitives: counters, gauges, time series and histograms.

The recorders are deliberately dependency-free (no numpy) and purely
additive: feeding the same observations in the same order always
produces the same state, so snapshots serialise to byte-identical JSON
whatever process or worker count produced them (the same discipline as
:func:`repro.campaigns.spec.canonical_json`).

All recorders live in a :class:`MetricsRegistry`, which hands out one
recorder per name and renders the whole collection as a nested
``snapshot()`` dict — the payload of :mod:`repro.obs.snapshot`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "linear_edges",
]


@dataclass(slots=True)
class Counter:
    """A monotonically increasing integer count."""

    name: str
    value: int = 0

    def inc(self, delta: int = 1) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name}: negative increment {delta}")
        self.value += delta

    def snapshot(self) -> int:
        return self.value


@dataclass(slots=True)
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


@dataclass(slots=True)
class TimeSeries:
    """An append-only ``(time, value)`` series.

    ``observe`` does not require monotone times, but simulator-fed
    series are naturally time-ordered, which keeps snapshots stable.
    """

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def observe(self, time: float, value: float) -> None:
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> float | None:
        return self.values[-1] if self.values else None

    def snapshot(self) -> dict[str, list[float]]:
        return {"times": list(self.times), "values": list(self.values)}


def linear_edges(lo: float, hi: float, n_buckets: int = 10) -> tuple[float, ...]:
    """``n_buckets + 1`` evenly spaced bucket edges over ``[lo, hi]``
    (degenerate ranges collapse to a single ``[lo, lo]`` bucket)."""
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return (lo,)
    step = (hi - lo) / n_buckets
    return tuple(lo + i * step for i in range(n_buckets)) + (hi,)


@dataclass(slots=True)
class Histogram:
    """A fixed-bucket histogram with configurable edges.

    ``edges`` are the non-decreasing bucket boundaries; ``counts`` has
    ``len(edges) + 1`` entries: ``counts[0]`` is the underflow bucket
    (``v < edges[0]``), ``counts[i]`` counts ``edges[i-1] <= v <
    edges[i]`` and ``counts[-1]`` is the overflow bucket
    (``v >= edges[-1]``).  Running count/sum/min/max ride along so the
    snapshot is self-describing.
    """

    name: str
    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    vmin: float = 0.0
    vmax: float = 0.0

    def __post_init__(self) -> None:
        self.edges = tuple(float(e) for e in self.edges)
        if not self.edges:
            raise ValueError(f"histogram {self.name}: needs at least one edge")
        if any(b < a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError(f"histogram {self.name}: edges must be non-decreasing")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float, n: int = 1) -> None:
        value = float(value)
        self.counts[bisect_right(self.edges, value)] += n
        if self.count == 0:
            self.vmin = self.vmax = value
        else:
            self.vmin = min(self.vmin, value)
            self.vmax = max(self.vmax, value)
        self.count += n
        self.total += value * n

    def observe_all(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }


#: recorder kind -> snapshot section name.
_SECTIONS = {
    Counter: "counters",
    Gauge: "gauges",
    TimeSeries: "series",
    Histogram: "histograms",
}


class MetricsRegistry:
    """A named collection of recorders.

    Accessors are idempotent: asking twice for the same name returns
    the same recorder, and asking for an existing name with a different
    recorder type raises.
    """

    def __init__(self) -> None:
        self._recorders: dict[str, Any] = {}

    def _get(self, cls, name: str, *args, **kwargs):
        existing = self._recorders.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        recorder = cls(name, *args, **kwargs)
        self._recorders[name] = recorder
        return recorder

    def counter(self, name: str) -> Counter:
        return self._get(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(Gauge, name)

    def series(self, name: str) -> TimeSeries:
        return self._get(TimeSeries, name)

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        hist = self._get(Histogram, name, tuple(edges))
        if hist.edges != tuple(float(e) for e in edges):
            raise ValueError(f"histogram {name!r} already registered with different edges")
        return hist

    def __len__(self) -> int:
        return len(self._recorders)

    def __contains__(self, name: str) -> bool:
        return name in self._recorders

    def __getitem__(self, name: str) -> Any:
        return self._recorders[name]

    def names(self) -> list[str]:
        return sorted(self._recorders)

    def count(self, name: str) -> int:
        """Value of counter ``name``, 0 if it was never created (the
        read creates nothing, so lazily created counters stay absent
        from snapshots)."""
        counter = self._recorders.get(name)
        return 0 if counter is None else counter.value

    def counter_values(self) -> dict[str, int]:
        """Every counter's value, by name."""
        return {
            name: recorder.value
            for name, recorder in self._recorders.items()
            if isinstance(recorder, Counter)
        }

    def load_counter_values(self, values: Mapping[str, int]) -> None:
        """Set each named counter (created if missing) to its value in
        ``values``: the inverse of :meth:`counter_values`."""
        for name, value in values.items():
            self.counter(name).value = int(value)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All recorders by section, names sorted — the ``metrics``
        payload of a :func:`repro.obs.snapshot.metrics_snapshot`."""
        out: dict[str, dict[str, Any]] = {s: {} for s in _SECTIONS.values()}
        for name in self.names():
            recorder = self._recorders[name]
            out[_SECTIONS[type(recorder)]][name] = recorder.snapshot()
        return out
