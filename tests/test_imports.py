"""No module of the package imports a name it never reads.

The check parses every src/poisolve/*.py and compares the names bound by
its import statements with the names its code reads. __future__ imports
bind no usable name, and __init__.py's relative imports are the
package's re-exports, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "poisolve").glob("*.py"))


def _dead_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__"
                or (path.name == "__init__.py" and node.level > 0)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in bound.items() if name not in read)


def test_sources_found():
    assert {"__init__.py", "conv.py", "model.py", "spectral.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_dead_imports(path):
    assert not _dead_imports(path)


def test_check_finds_a_dead_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert _dead_imports(src) == ["m.py:1: os", "m.py:2: tau"]
