"""Reproduction-report configuration.

Every ``bench_*.py`` regenerates one paper table/figure (or an
ablation), prints the resulting rows and asserts their shape, so
``python -m pytest -s benchmarks/`` doubles as the reproduction report.
Nothing here times anything: speed is measured by ``benchmarks/perf``.

Scale knobs: set ``REPRO_BENCH_SCALE=full`` in the environment to run
the paper-scale versions (Figure 10's 100-permutation sweep, Figure
11's 10 000-task campaign); the default ``quick`` scale preserves every
qualitative shape at a fraction of the runtime.
"""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "paper: regenerates a paper table/figure")
    config.addinivalue_line("markers", "ablation: design-choice ablation benchmark")


@pytest.fixture(scope="session")
def scale() -> str:
    """``quick`` (default) or ``full`` (paper-scale)."""
    return os.environ.get("REPRO_BENCH_SCALE", "quick")
