"""No module under src/, demos/ or tests/ imports a name that it never uses.

Each scope is checked on its own: an import inside a function must be
used inside that function, so a handler that stops using a name it
imports locally is caught even when another handler uses the same name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_imports(scope: ast.AST):
    """The import statements that bind names in scope, not in a nested scope."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    # "import a.b" binds a
    return [alias.asname or alias.name.partition(".")[0] for alias in node.names]


def _used_names(scope: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    for node in ast.walk(scope):  # a name listed in __all__ is exported, so used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, SCOPES))]:
        used = _used_names(scope)
        for node in _own_imports(scope):
            found += [f"line {node.lineno}: {name}" for name in _bound_names(node)
                      if name not in used]
    return sorted(found)


def test_the_scan_finds_an_unused_import():
    source = ("import math\nimport os.path\nfrom typing import Any as A\n"
              "def f():\n    from json import dumps, loads\n    return loads\n"
              "def g():\n    return dumps\n")
    assert unused_imports(source) == ["line 1: math", "line 2: os", "line 3: A",
                                      "line 5: dumps"]
    assert unused_imports("import os.path\nos.sep\n__all__ = ['x']\nfrom m import x\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []
