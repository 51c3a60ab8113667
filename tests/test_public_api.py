"""Every name the package exports has a caller beyond its definition.

A name counts as used when it occurs at least twice across the library
modules (other than the package's __init__), the demos and the benchmark
tracer: once where it is defined and at least once where it is used.
A name that only tests reach is code the answer does not need.

The package exports the names of its one lookup table, each found in
its module on first use; each must resolve to its module's object, and
a star import must bind every one of them.

Each name has one home: a library module uses every name it imports, so
no module re-exports another's names, and defines each top-level name
once, so no later definition silently replaces an earlier one. No
library module imports numpy: the package needs only the standard
library. Only synth imports dataclasses: the other records are plain
classes on tasks._Record, so the verbs that fit never load it.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import fitts3d

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fitts3d"
SOURCES = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + [ROOT / "perfbench" / "tracer.py"])
TEXT = "\n".join(p.read_text(encoding="utf-8") for p in SOURCES)


def _exported():
    return list(fitts3d._LAZY_EXPORTS)


def test_exports_found():
    assert len(_exported()) > 50


@pytest.mark.parametrize("name", _exported())
def test_exported_name_has_a_caller(name):
    assert len(re.findall(rf"\b{re.escape(name)}\b", TEXT)) >= 2


@pytest.mark.parametrize("name,module", sorted(fitts3d._LAZY_EXPORTS.items()))
def test_lazy_export_resolves(name, module):
    owner = importlib.import_module(f"fitts3d.{module}")
    assert getattr(fitts3d, name) is getattr(owner, name)
    assert name in dir(fitts3d)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fitts3d import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fitts3d._LAZY_EXPORTS)
    for name, module in fitts3d._LAZY_EXPORTS.items():
        owner = importlib.import_module(f"fitts3d.{module}")
        assert namespace[name] is getattr(owner, name)


def _unused_imports(path):
    """The names the module at path imports and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unused_name(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import math, os.path as p\nfrom .x import (a, b as c)\n"
                    "def f():\n    import json\n    return a + math.pi + json\n",
                    encoding="utf-8")
    assert _unused_imports(path) == ["c", "p"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path) == []


def _redefined(path):
    """The top-level names the module at path defines more than once, by
    def, class or assignment."""
    defined = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return sorted({name for name in defined if defined.count(name) > 1})


def test_redefined_finds_a_second_definition(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("A, b = 1, 2\nc: int = 3\nclass A:\n    x = 1\n"
                    "def f():\n    c = 4\nasync def b():\n    pass\nd[0] = 5\n",
                    encoding="utf-8")
    assert _redefined(path) == ["A", "b"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_each_name_once(path):
    assert _redefined(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    roots = {name.split(".")[0] for name in imported}
    assert "numpy" not in roots
    if path.name != "synth.py":
        assert "dataclasses" not in roots


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fitts3d.no_such_name
