"""Every name a module of the package imports is used, every name it defines is read,
and no module rebinds a global.

Stdlib stand-ins for a linter's unused-import and dead-code rules. An
imported name counts as used when it appears anywhere in the module's code
(scopes are not told apart); ``from __future__`` imports and the names a
module exports through ``__all__`` are exempt. A name a module defines at
top level counts as read when a bare name or an attribute of that name is
loaded outside its own definition: a private name (``_helper``) in its own
module, a public one anywhere under ``src``, ``tests`` or ``perfbench``. A
method or dataclass field of a top-level class counts as read when an
attribute of its name is loaded, or a keyword of its name passed, anywhere
there outside its own definition; dunder methods are exempt. A second pass
counts only the reads under ``src`` and ``perfbench``: a public name or
member that only tests read must be in ``KEPT``, with the direction of
ROADMAP.md that will call it, and leaves ``KEPT`` once code reads it. A
``global`` statement anywhere in a module is refused: state a function
rebinds at module level is shared by every caller.
"""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import adapterlab

PACKAGE = Path(adapterlab.__file__).parent
ROOT = PACKAGE.parents[1]
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


def member_reads(node: ast.AST) -> Counter:
    """How often each attribute name is loaded, or passed as a keyword, in ``node``.

    The receiver of an ``.append(...)`` or ``.extend(...)`` call is written, not read.
    """
    written = {id(sub.func.value) for sub in ast.walk(node)
               if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
               and sub.func.attr in ("append", "extend")}
    return Counter(sub.attr if isinstance(sub, ast.Attribute) else sub.arg
                   for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                   and id(sub) not in written
                   or isinstance(sub, ast.keyword) and sub.arg)


def orphaned_members(source: str, read_elsewhere: set[str]) -> list[str]:
    """``Class.member`` for each method or dataclass field that nothing reads.

    A member is read in ``source`` outside its own definition, or in
    ``read_elsewhere``. A store (``self.count += 1``) or an append to it is not a read.
    """
    tree = ast.parse(source)
    reads = member_reads(tree)
    orphans = []
    for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
        dataclass = any(isinstance(d, ast.Name) and d.id == "dataclass"
                        or isinstance(d, ast.Call) and getattr(d.func, "id", "") == "dataclass"
                        for d in cls.decorator_list)
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = stmt.name
            elif (dataclass and isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)):
                name = stmt.target.id
            else:
                continue
            if (not name.startswith("__") and name not in read_elsewhere
                    and reads[name] == member_reads(stmt)[name]):
                orphans.append(f"{cls.name}.{name}")
    return orphans


@cache
def member_reads_of(path: Path) -> set[str]:
    return set(member_reads(ast.parse(path.read_text(encoding="utf-8"))))


def test_checker_finds_an_orphaned_member():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class Stats:\n"
              "    steps: int = 0\n"
              "    skipped: int = 0\n"
              "    losses: list = None\n"
              "    totals: list = None\n"
              "    def __post_init__(self):\n"
              "        self.skipped += 1\n"  # a store, not a read
              "        self.totals.append(1)\n"  # a write too
              "        self.totals.extend([2])\n"
              "    def total(self):\n"
              "        return self.total() if self.steps else 0\n"  # only its own body reads it
              "    def mean(self):\n"
              "        return self.losses\n"
              "class Plain:\n"
              "    limit: int = 3\n"  # not a dataclass, so no field
              "    def run(self):\n"
              "        return Stats(steps=1).mean()\n")
    assert orphaned_members(source, {"run"}) == ["Stats.skipped", "Stats.totals", "Stats.total"]
    assert orphaned_members(source, {"total", "totals"}) == ["Stats.skipped", "Plain.run"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_has_no_orphaned_member(module):
    path = PACKAGE / module
    elsewhere = set().union(*(member_reads_of(p) for p in READERS if p != path))
    assert orphaned_members(path.read_text(encoding="utf-8"), elsewhere) == []


# ``module.name`` or ``module.Class.member`` -> why it stays while only tests read it
KEPT = {
    "autodiff.matmul": "perfbench/tracing._OP_NAMES names it by string (Direction 10)",
    "autodiff.softmax_rows": "perfbench/tracing._OP_NAMES names it by string (Direction 10)",
    "autodiff.select_token": "perfbench/tracing._OP_NAMES names it by string (Direction 10)",
    "autodiff.grad_check": "the reference every op's test compares against (Aim 3)",
    "optim.Adam.state_checksum": "shows the second optimizer's state stays its own "
                                 "(Direction 4)",
    "synthlang.apply_language": "the per-sentence definition the batch relexifier is "
                                "tested against (Aim 3)",
    "synthlang.gen_seq_task": "the sentence-pair task Direction 7 replaces",
    "synthlang.invert_language": "the translate-test arm (Direction 2)",
    "synthlang.Vocab.content_hash": "the run manifest's vocab hash (Direction 2)",
    "synthlang.TaskDataset.content_hash": "the run manifest's dataset hash (Direction 2)",
    "synthlang.TaskDataset.label_counts": "the majority-class share beside each score "
                                          "(Direction 2)",
    "training.model_selection": "the grid's choice by source dev metric (Direction 2)",
    "training.write_run_manifest": "each run directory's manifest (Direction 2)",
    "training.read_run_manifest": "the report reads the cell records (Direction 2)",
    "training.config_hash": "keys each stage's output in the grid (Direction 2)",
    "training.TrainStats.skipped_sequences": "a field of the per-step record (Direction 8)",
}


def read_only_by_tests(path: Path, root: Path) -> list[str]:
    """``module.name`` / ``module.Class.member`` for each name or member of the module at
    ``path`` that no file under ``root``'s ``src`` or ``perfbench`` reads; ``tests`` do not count."""
    shipped = [p for d in ("src", "perfbench") for p in (root / d).rglob("*.py") if p != path]
    source = path.read_text(encoding="utf-8")
    orphans = (orphaned_names(source, set().union(*map(reads_of, shipped)))
               + orphaned_members(source, set().union(*map(member_reads_of, shipped))))
    return [f"{path.stem}.{name}" for name in orphans]


def test_checker_finds_a_name_only_tests_read(tmp_path):
    files = {"src/pkg/mod.py": ("def benched():\n"
                                "    return 1\n"
                                "def tested():\n"
                                "    return 2\n"
                                "class Box:\n"
                                "    def size(self):\n"
                                "        return 3\n"
                                "    def peek(self):\n"
                                "        return 4\n"),
             "perfbench/bench.py": "import mod\nmod.benched()\nmod.Box().size()\n",
             "tests/test_mod.py": "from pkg import mod\nmod.tested()\nmod.Box().peek()\n"}
    for name, source in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source, encoding="utf-8")
    assert read_only_by_tests(tmp_path / "src/pkg/mod.py", tmp_path) == ["mod.tested",
                                                                          "mod.Box.peek"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_has_no_name_only_tests_read(module):
    assert [e for e in read_only_by_tests(PACKAGE / module, ROOT) if e not in KEPT] == []


def test_every_kept_name_exists_and_is_still_read_only_by_tests():
    found = {e for p in PACKAGE.glob("*.py") for e in read_only_by_tests(p, ROOT)}
    assert sorted(set(KEPT) - found) == []  # gone from its module, or code reads it now


def global_statements(source: str) -> list[str]:
    """``line N: global names`` for each ``global`` statement, at any depth."""
    return [f"line {node.lineno}: global {', '.join(node.names)}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


def test_checker_finds_a_global_statement():
    source = ("_count = 0\n"
              "def bump():\n"
              "    global _count\n"
              "    _count += 1\n"
              "class Box:\n"
              "    def set(self):\n"
              "        global _a, _b\n"
              "        _a = _b = 1\n"
              "def read():\n"
              "    total = _count\n"
              "    def inner():\n"
              "        nonlocal total\n"  # a closure's rebind is not module state
              "        total += 1\n"
              "    return total\n")
    assert global_statements(source) == ["line 3: global _count", "line 7: global _a, _b"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_has_no_global_statement(module):
    assert global_statements((PACKAGE / module).read_text(encoding="utf-8")) == []
