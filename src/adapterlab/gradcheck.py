"""Central finite-difference verification of analytic gradients.

The freeze flag is the one graph switch: perturbed evaluations run frozen.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import NumericError, ShapeError

STEP = 1e-5  # each input coordinate moves by this much each way


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
) -> float:
    """Compare the backward pass of ``f`` against central differences.

    ``f`` must map the given tensors to a differentiable scalar. Returns the
    maximum over all coordinates of |analytic - numeric| / max(1, |numeric|).
    After the backward the inputs are frozen, each keeping its gradient in ``grad``.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = f(inputs)
    if out.shape != ():
        raise ShapeError(f"grad_check needs a scalar function, got shape {out.shape}")
    if not math.isfinite(out.item()):
        raise NumericError("grad_check: function value is non-finite at the base point")
    out.backward()
    for t in inputs:
        t.requires_grad = False  # so the perturbed evaluations record no graph
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.values) for t in inputs]

    worst = 0.0
    for idx, t in enumerate(inputs):
        flat = t.values.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + STEP
            up = f(inputs).item()
            flat[k] = orig - STEP
            down = f(inputs).item()
            flat[k] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError(
                    f"grad_check: non-finite value perturbing input {idx} coordinate {k}"
                )
            numeric = (up - down) / (2.0 * STEP)
            a = analytic[idx].reshape(-1)[k]
            err = abs(a - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
