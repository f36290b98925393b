"""Every name a module of the package imports is used in that module.

A stdlib stand-in for a linter's unused-import rule. A name counts as used
when it appears anywhere in the module's code (scopes are not told apart);
``from __future__`` imports and the names a module exports through
``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

import adapterlab

PACKAGE = Path(adapterlab.__file__).parent


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
