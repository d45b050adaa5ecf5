"""The benchmark record and the comparison rule.

Every number the harness reports is a :func:`summary` of repeated
measurements (median, min, interquartile range, sample count), stored
with where it was measured: commit, host (CPU model, ``nproc``,
filesystem of the scratch directory), Python and numpy versions, seed
and repeat count.

:func:`compare_records` applies the no-regression rule of the
benchmark: per workload and metric, a change is *worse* when its median
is worse than the baseline's by more than the metric's bound, and
*unresolved* when the run-to-run spread is wider than the bound (unless
every sample of one side beats every sample of the other).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "compare_records",
    "git_commit",
    "host_info",
    "render_comparison",
    "summary",
]


def summary(values: Sequence[float]) -> dict[str, Any]:
    """Median, min, interquartile range and count of ``values``."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("summary() of no samples")
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "median": statistics.median(vals),
        "min": min(vals),
        "iqr": iqr,
        "n": len(vals),
        "samples": vals,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout at ``root``, or ``"unknown"`` outside git
    (the lookup never walks above ``root``)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (longest mount
    point prefix in ``/proc/mounts``)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = target == mnt or target.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def host_info(scratch: Path) -> dict[str, Any]:
    """Where the numbers were measured."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "missing"
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "scratch_fs": _fs_type(scratch),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# -- comparison ----------------------------------------------------------------


def _verdict(base: Mapping[str, Any], new: Mapping[str, Any], better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric (medians
    are never 0: the end-to-end metrics are rates, times and sizes)."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = base["median"], new["median"]
    worse_by = sign * (b - a) / a
    spread = max(base["iqr"] / a, new["iqr"] / b)
    if spread > bound:
        pairs = [sign * (y - x) for x in base["samples"] for y in new["samples"]]
        if all(d < 0 for d in pairs):
            return "better"
        if all(d > 0 for d in pairs):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    # one sample per run (peak RSS) has no spread to beat: use the bound
    noise = base["iqr"] / a if base["n"] > 1 else bound
    if -worse_by > noise:
        return "better"
    return "unchanged"


def compare_records(
    base: Mapping[str, Any], new: Mapping[str, Any], bench: Mapping[str, Any]
) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both
    records, with both medians/IQRs, the bound and the verdict."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for spec in bench["end_to_end"]:
            a = base[workload]["metrics"].get(spec["name"])
            b = new[workload]["metrics"].get(spec["name"])
            if a is None or b is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": spec["name"],
                    "unit": spec["unit"],
                    "base_median": a["median"],
                    "base_iqr": a["iqr"],
                    "new_median": b["median"],
                    "new_iqr": b["iqr"],
                    "bound": spec["bound"],
                    "verdict": _verdict(a, b, spec["better"], spec["bound"]),
                }
            )
    return rows


def render_comparison(rows: list[dict[str, Any]]) -> str:
    head = (
        f"{'workload':<18} {'metric':<16} {'unit':<6} {'base median':>13} {'base iqr':>11} "
        f"{'new median':>13} {'new iqr':>11} {'bound':>6}  verdict"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['workload']:<18} {r['metric']:<16} {r['unit']:<6} {r['base_median']:>13.6g} "
            f"{r['base_iqr']:>11.4g} {r['new_median']:>13.6g} {r['new_iqr']:>11.4g} "
            f"{r['bound']:>6.2f}  {r['verdict']}"
        )
    return "\n".join(lines)
