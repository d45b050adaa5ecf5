"""The runtime dependency list in ``pyproject.toml`` stays true, and
product code never reaches into the test suite."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _src_importers(package: str) -> list[str]:
    """``file:line`` of every absolute import of ``package`` (or a
    submodule of it) under ``src/repro``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(name.split(".")[0] == package for name in modules):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return offenders


def test_src_never_imports_networkx():
    """networkx is a ``test`` extra: only the cross-checks under
    ``tests/`` may import it."""
    assert _src_importers("networkx") == []


def test_src_never_imports_tests():
    """The golden and shadow oracles live in ``tests/oracles.py``; no
    product module may depend on them."""
    assert _src_importers("tests") == []
