"""The step path calls the ufunc or array method that does the work, not a numpy wrapper.

``autodiff``, ``objectives``, ``optim``, ``encoder`` and ``training`` (``run_phase``
and the batch builders) run on every training step, on arrays small enough that
a call's Python cost outweighs its arithmetic. The ``sum``, ``mean``, ``max``,
``min``, ``all`` and ``any`` methods go through ``numpy/_core/_methods.py``
before they reach their reduction, and ``np.moveaxis``, ``np.flatnonzero``,
``np.zeros_like`` and the ``np.`` functions below are Python functions over an
array method or a ufunc.
The rule is stated in ``autodiff``'s module docstring; this stdlib AST check
keeps a wrapper call from creeping back.
"""

import ast
from pathlib import Path

import pytest

import adapterlab

PACKAGE = Path(adapterlab.__file__).parent
STEP_PATH = ("autodiff", "objectives", "optim", "encoder", "training")
WRAPPER_METHODS = ("all", "any", "max", "mean", "min", "sum")
WRAPPER_FUNCTIONS = ("all", "any", "argsort", "flatnonzero", "max", "mean", "min", "moveaxis",
                     "sum", "swapaxes", "transpose", "zeros_like")


def wrapper_calls(source: str) -> list[str]:
    """``line N: name`` for each call of a wrapper method or ``np.`` wrapper function."""
    found = []
    calls = sorted((node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)),
                   key=lambda node: (node.lineno, node.col_offset))
    for node in calls:
        if not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        if isinstance(func.value, ast.Name) and func.value.id == "np":
            if func.attr in WRAPPER_FUNCTIONS:
                found.append(f"line {node.lineno}: np.{func.attr}")
        elif func.attr in WRAPPER_METHODS:
            found.append(f"line {node.lineno}: .{func.attr}()")
    return found


def test_checker_finds_a_wrapper_call():
    source = ("import numpy as np\n"
              "def f(x, rows):\n"
              "    m = x.max(axis=-1, keepdims=True)\n"
              "    y = np.moveaxis(x - m, -1, 0)\n"
              "    z = np.zeros_like(y) + max(1, len(rows))\n"  # the builtin max is no wrapper
              "    z = z + np.maximum.reduce(y, axis=0) + np.add.reduce(y, axis=None)\n"
              "    return np.flatnonzero(rows), (z > 0).all(), y.mean(), x.transpose((1, 0))\n")
    assert wrapper_calls(source) == ["line 3: .max()", "line 4: np.moveaxis",
                                     "line 5: np.zeros_like", "line 7: np.flatnonzero",
                                     "line 7: .all()", "line 7: .mean()"]


@pytest.mark.parametrize("module", STEP_PATH)
def test_step_path_module_calls_no_numpy_wrapper(module):
    assert wrapper_calls((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []
