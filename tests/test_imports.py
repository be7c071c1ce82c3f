"""Lint checks: no module of the package imports a name it never uses, no
private module-level name of the package goes unreferenced, and every
package name that a script of ``scripts/`` uses or documents exists."""

import ast
import importlib
import re
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


SCRIPTS = sorted((PACKAGE.parents[1] / "scripts").glob("*.py"))
SUBMODULES = {p.stem for p in MODULES}


def script_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for each package name of a script: the names it
    imports from ``tiedyn``, those it reads or sets on a package module
    it imported, and the ````module.name```` spans of its docstrings."""
    modules, names = {}, set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tiedyn":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "tiedyn" and alias.name in SUBMODULES:
                    modules[alias.asname or alias.name] = f"tiedyn.{alias.name}"
        elif isinstance(node, ast.Import):
            modules |= {alias.asname: alias.name for alias in node.names
                        if alias.asname and alias.name.startswith("tiedyn.")}
    for node in ast.walk(tree):  # a setattr on a renamed name passes silently
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.add((modules[node.value.id], node.attr))
    names |= {(f"tiedyn.{module}", name)
              for module, name in re.findall(r"``(\w+)\.(\w+)``", source)
              if module in SUBMODULES}
    return names


def missing_names(names: set[tuple[str, str]]) -> list[str]:
    return [f"{module}.{name}" for module, name in sorted(names)
            if not hasattr(importlib.import_module(module), name)]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_names_exist(path):
    assert missing_names(script_names(path.read_text())) == []


def test_script_names_are_found():
    source = (PACKAGE.parents[1] / "scripts" / "helper_gate.py").read_text()
    assert {("tiedyn.propagator", name) for name in
            ("_live_block", "_factor", "_expm", "_taylor", "_GEMM_MAX", "_cpus")
            } <= script_names(source)
    source = ('"""Times ``propagator._gone``."""\n'
              "from tiedyn import propagator, spectral_gap\n"
              "import tiedyn.tie_decay as td\n"
              "from tiedyn.events import parse_events, _lost\n"
              "def main():\n    propagator._cpus = td._flushed\n")
    assert missing_names(script_names(source)) == [
        "tiedyn.events._lost", "tiedyn.propagator._gone", "tiedyn.tie_decay._flushed"]
