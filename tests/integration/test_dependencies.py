"""The runtime dependency list in ``pyproject.toml`` stays true."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def test_src_never_imports_networkx():
    """networkx is a ``test`` extra: only the cross-checks under
    ``tests/`` may import it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in modules):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
