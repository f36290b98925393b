"""Every name a module of the package imports is used, and every name it defines is read.

Stdlib stand-ins for a linter's unused-import and dead-code rules. An
imported name counts as used when it appears anywhere in the module's code
(scopes are not told apart); ``from __future__`` imports and the names a
module exports through ``__all__`` are exempt. A name a module defines at
top level counts as read when a bare name or an attribute of that name is
loaded outside its own definition: a private name (``_helper``) in its own
module, a public one anywhere under ``src``, ``tests`` or ``perfbench``.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

import adapterlab

PACKAGE = Path(adapterlab.__file__).parent
READERS = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (PACKAGE.parents[1] / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\n"
              "from .errors import ConfigError, SwapError\n"
              "from .optim import Adam\n"
              "__all__ = ['Adam']\n"
              "def f(x):\n"
              "    raise ConfigError(np.asarray(x))\n")
    assert unused_imports(source) == ["line 2: os", "line 3: SwapError"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def read_names(statements) -> set[str]:
    """Names the statements load, as a bare name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for stmt in statements for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def orphaned_names(source: str, read_elsewhere: set[str]) -> list[str]:
    """Top-level names of ``source`` read nowhere outside their own definition.

    A private name must be read in ``source``; a public one there or in
    ``read_elsewhere``.
    """
    tree = ast.parse(source)
    orphans = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        own = read_names(s for s in tree.body if s is not stmt)
        orphans += [name for name in names if not name.startswith("__") and name not in own
                    and (name.startswith("_") or name not in read_elsewhere)]
    return orphans


@cache
def reads_of(path: Path) -> set[str]:
    return read_names(ast.parse(path.read_text(encoding="utf-8")).body)


def test_checker_finds_an_orphaned_name():
    source = ("import os\n"
              "LIMIT = 3\n"
              "_CACHE: dict = {}\n"
              "def _step(x):\n"
              "    return _step(x - 1) if x else os.sep\n"
              "def _used():\n"
              "    return LIMIT\n"
              "def api():\n"
              "    return _used()\n"
              "class Thing:\n"
              "    pass\n")
    assert orphaned_names(source, {"Thing", "api"}) == ["_CACHE", "_step"]
    assert orphaned_names(source, set()) == ["_CACHE", "_step", "api", "Thing"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_has_no_orphaned_name(module):
    path = PACKAGE / module
    elsewhere = set().union(*(reads_of(p) for p in READERS if p != path))
    assert orphaned_names(path.read_text(encoding="utf-8"), elsewhere) == []
