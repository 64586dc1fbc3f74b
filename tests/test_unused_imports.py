"""No module of the ``repro`` package imports a name it never uses.

A stdlib-only lint: each module under ``src/repro`` (package
``__init__.py`` files aside, whose imports are re-exports) is parsed with
:mod:`ast`, and every name its top-level statements import must be read
somewhere in the module: as a name in code, in an annotation (a quoted one
included), or through ``__all__``.  ``from __future__`` imports are
compiler directives, not names.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _imported_names(tree: ast.Module) -> dict:
    """Name -> line of each name the module's top-level statements bind
    by import (imports nested in top-level ``if``/``try`` blocks count)."""
    names = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("Simulator", Optional["Packet"]) or an
            # ``__all__`` entry: read it as an expression if it is one.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)
            )
    return used


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [
        f"{path.relative_to(SRC.parent)}:{line} {name}"
        for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_scan_sees_an_unused_import():
    tree = ast.parse(
        "from typing import List, Optional\n"
        "import os.path\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert set(_imported_names(tree)) == {"List", "Optional", "os"}
    assert {"List", "Optional", "os"} - _used_names(tree) == {"List"}


def test_no_unused_imports():
    modules = sorted(
        path for path in SRC.rglob("*.py") if path.name != "__init__.py"
    )
    assert len(modules) > 50
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []
