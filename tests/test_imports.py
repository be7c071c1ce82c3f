"""Lint checks: no module of the package imports a name it never uses, and
no private module-level name of the package goes unreferenced."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tiedyn"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its types inside a string
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from typing import Iterable, Iterator\nimport numpy as np\nx: Iterable = np\n"
    assert unused_imports(source) == ["line 1: Iterator"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from x import T\ny: 'list[T]'\n") == []


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assigned names, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each module-level ``_private`` name that no
    module of ``sources`` (name -> source) reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, line, name) for name, line in defined_names(tree).items()
                    if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(getattr(node, "id", getattr(node, "attr", None)))
    return [f"{module}:{line}: {name}" for module, line, name in sorted(defined)
            if name not in read]


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def test_orphaned_private_name_is_reported():
    sources = {
        "a.py": "_used = 1\n_orphan = 2\ndef _helper(): pass\n"
                "class _Read: pass\nx: int = _used\n",
        "b.py": "import a\na._helper()\n_unread = a._Read\na._orphan = 3\n",
    }
    assert orphaned_private_names(sources) == ["a.py:2: _orphan", "b.py:3: _unread"]
    # assigning a name, as ``global`` code does, does not read it
    assert orphaned_private_names({"c.py": "_n = 0\ndef f():\n    global _n\n"
                                           "    _n = 1\n"}) == ["c.py:1: _n"]
