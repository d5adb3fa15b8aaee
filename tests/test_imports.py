"""No module of the package imports a name it never reads, and no
module-level function or class of the package goes unread.

The import check parses every src/poisolve/*.py and compares the names
bound by its import statements with the names its code reads. __future__
imports bind no usable name, and __init__.py's relative imports are the
package's re-exports, so both are exempt.

The definition check collects every name read, as a variable or as an
attribute, anywhere in src/, tests/ or perfbench/ (whose files are only
parsed), and reports each module-level def or class of src/poisolve/*.py
whose name is not among them. A re-export in __init__.py binds a name
without reading it, so it keeps nothing alive.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "poisolve").glob("*.py"))
READERS = [*SOURCES, *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


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


def _names_read(paths):
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _dead_definitions(sources, readers):
    read = _names_read(readers)
    return sorted(f"{path.name}:{node.lineno}: {node.name}"
                  for path in sources for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in read)


def test_readers_found():
    assert {"run.py", "selftest.py", "test_imports.py", "training.py"} <= {p.name for p in READERS}


def test_no_dead_definitions():
    assert not _dead_definitions(SOURCES, READERS)


def test_check_finds_a_dead_definition(tmp_path):
    src, user = tmp_path / "m.py", tmp_path / "use.py"
    src.write_text("def f():\n    return g()\n\n\ndef g():\n    return 1\n\n\n"
                   "class Unread:\n    pass\n\n\nclass Read:\n    pass\n")
    user.write_text("from m import Read, f\nimport m\nprint(m.Read)\n")
    assert _dead_definitions([src], [src, user]) == ["m.py:1: f", "m.py:9: Unread"]
