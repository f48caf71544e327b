"""No module under src/, demos/ or tests/ imports a name that it never uses,
no private module-level name under src/ goes unreferenced, no record field
under src/ goes unread, and no module under src/ builds a record that
generates code: it imports no dataclasses and names no NamedTuple or
namedtuple.

Each scope is checked on its own: an import inside a function must be
used inside that function, so a handler that stops using a name it
imports locally is caught even when another handler uses the same name.
A private function, class or constant (one leading underscore) is
referenced when some module under src/ loads it by name or as an
attribute, so a helper left behind by a deletion is caught.  A record
field (an annotated name in the body of a _Record subclass) is read when
some module under src/, demos/, bench/, tools/ or tests/ loads it as an
attribute, so a field that every caller ignores is caught, and a module
that declares one imports annotations from __future__, which keeps the
fields strings in the class body on every Python.  Every record
of the package is a domain._Record: a dataclass generates and compiles
its methods, and a NamedTuple its constructor and its annotations, each
time its module loads, which every CLI run would pay at start-up.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py")])
READERS = sorted([*MODULES, *(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py")])
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


def _private_definitions(tree: ast.Module):
    """The private names that the module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """module: name for each private top-level name that no source loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) if name not in loaded)


def test_the_scan_finds_an_unreferenced_private_name():
    sources = {"a": "_LIMIT = 3\n_unused = 4\ndef _helper():\n    return _LIMIT\n"
                    "class _Dead:\n    pass\n__doc__ = ''\n",
               "b": "from a import _helper\nimport a\na._helper()\n"}
    assert unreferenced_private_names(sources) == ["a: _Dead", "a: _unused"]


def test_no_unreferenced_private_name():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unreferenced_private_names(sources) == []


def _record_fields(tree: ast.Module):
    """(class, field) for each field of the module's record classes: the
    annotated names in the body of a _Record subclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "_Record" for base in node.bases):
            yield from ((node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign))


def unread_record_fields(definitions: dict[str, str], readers: dict[str, str]) -> list[str]:
    """module: Class.field for each record field of definitions that no reader
    loads as an attribute."""
    read = {node.attr for source in readers.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}: {cls}.{field}" for module, source in definitions.items()
                  for cls, field in _record_fields(ast.parse(source)) if field not in read)


def test_the_scan_finds_an_unread_record_field():
    definitions = {"a": "class R(_Record):\n    x: int\n    y: int\n    label = 'r'\n"
                        "class S(_Record):\n    p: int\n    q: int = 0\n"
                        "class T:\n    z: int\n"}
    readers = {**definitions, "b": "r.x\nprint(s.q)\ns.p = 1\n"}
    assert unread_record_fields(definitions, readers) == ["a: R.y", "a: S.p"]


def test_no_record_field_is_unread():
    definitions = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert unread_record_fields(definitions, readers) == []


def declares_records_without_future_annotations(source: str) -> bool:
    """Whether the module defines a _Record subclass but does not import
    annotations from __future__, so that on Python 3.14 its fields are
    left to a function that evaluates them, not as strings in the body."""
    tree = ast.parse(source)
    future = any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
                 and any(a.name == "annotations" for a in node.names) for node in tree.body)
    return not future and any(True for _ in _record_fields(tree))


def test_the_scan_finds_records_without_future_annotations():
    record = "class R(_Record):\n    x: int\n"
    assert declares_records_without_future_annotations(record)
    assert not declares_records_without_future_annotations(
        "from __future__ import annotations\n" + record)
    assert not declares_records_without_future_annotations("class T:\n    x: int\n")


def test_every_record_module_imports_future_annotations():
    assert [str(p.relative_to(ROOT)) for p in SOURCES
            if declares_records_without_future_annotations(p.read_text())] == []


GENERATED_RECORDS = ("NamedTuple", "namedtuple")


def generated_record_uses(source: str) -> list[str]:
    """The line of each import of the dataclasses module and of each name or
    attribute NamedTuple or namedtuple, at any depth."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                or isinstance(node, ast.ImportFrom) and (
                    node.module == "dataclasses"
                    or any(a.name in GENERATED_RECORDS for a in node.names))
                or isinstance(node, ast.Name) and node.id in GENERATED_RECORDS
                or isinstance(node, ast.Attribute) and node.attr in GENERATED_RECORDS):
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_the_scan_finds_a_record_that_generates_code():
    source = ("import dataclasses as dc\nimport dataclasses_json\n"
              "def f():\n    from dataclasses import dataclass\n    return dataclass\n"
              "from typing import NamedTuple as NT\nimport collections\n"
              "P = collections.namedtuple('P', 'x y')\nclass Q(typing.NamedTuple):\n    x: int\n"
              "class R(_Record):\n    x: int\n")
    assert generated_record_uses(source) == ["line 1", "line 4", "line 6", "line 8", "line 9"]


def test_no_record_under_src_generates_code():
    found = {str(p.relative_to(ROOT)): generated_record_uses(p.read_text()) for p in SOURCES}
    assert {module: lines for module, lines in found.items() if lines} == {}
