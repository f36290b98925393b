"""Named weights, each frozen until a phase trains it; Adam; gradient-norm clipping."""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import Tensor
from .errors import ContractError

# Adam's moment decay rates and denominator guard; no caller varies them
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class ParamSet:
    """Ordered name -> Tensor map; the freeze flag is the tensor's requires_grad.

    Declaration (insertion) order is stable and defines the array order in
    checkpoints.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ContractError(f"parameter {name!r} already declared")
        tensor.requires_grad = False
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def set_trainable(self, names) -> None:
        """Freeze everything, then unfreeze exactly the given names."""
        wanted = set(names)
        unknown = wanted - set(self._params)
        if unknown:
            raise ContractError(f"unknown parameters: {sorted(unknown)}")
        for name, t in self._params.items():
            t.requires_grad = name in wanted

    def checksum(self, names=None) -> str:
        """sha256 over raw little-endian float64 bytes, in declaration order."""
        h = hashlib.sha256()
        for name, t in self._params.items():
            if names is not None and name not in names:
                continue
            h.update(name.encode())
            h.update(np.ascontiguousarray(t.values, dtype="<f8").tobytes())
        return h.hexdigest()


def clip_grad_norm(params: ParamSet, names, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Operates over the given parameter names (those that hold a gradient) and
    returns the pre-clip norm. Scaling by a single positive factor preserves
    the gradient direction.
    """
    grads = [params[n].grad for n in names if params[n].grad is not None]
    total = 0.0
    for g in grads:
        total += float(np.add.reduce(g * g, axis=None))
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class Adam:
    """Adam with bias correction over a named subset of a ParamSet.

    Each instance owns its own first/second moment buffers, so two optimizers
    driving the same parameters from different losses never share state. A
    step moves exactly the given names, each of which must hold a gradient,
    and clears their gradients; every other weight stays bit-identical.
    """

    def __init__(self, params: ParamSet, names, lr: float):
        self.params = params
        self.names = list(names)
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros(params[n].shape) for n in self.names}
        self.v = {n: np.zeros(params[n].shape) for n in self.names}

    def step(self) -> None:
        """Move each weight by ``lr * m_hat / (sqrt(v_hat) + EPS)``.

        Two temporaries per weight hold each intermediate in turn; every element
        goes through the ufuncs of the out-of-place expressions in their order
        (a product's operands may swap, which rounds the same).
        """
        self.t += 1
        for name in self.names:
            p = self.params[name]
            if p.grad is None:
                raise ContractError(f"parameter {name!r} has no gradient")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            step, denom = np.empty_like(g), np.empty_like(g)  # arrays even for a 0-d weight
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=step)
            v *= BETA2
            np.multiply(g, g, out=step)
            v += np.multiply(step, 1.0 - BETA2, out=step)
            np.divide(m, 1.0 - BETA1 ** self.t, out=step)  # m_hat
            step *= self.lr
            np.divide(v, 1.0 - BETA2 ** self.t, out=denom)  # v_hat
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            p.values -= step
        for name in self.names:
            self.params[name].grad = None

    def state_checksum(self) -> str:
        """Byte-level digest of the moment buffers, for independence checks."""
        h = hashlib.sha256()
        for name in self.names:
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.m[name], dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(self.v[name], dtype="<f8").tobytes())
        h.update(str(self.t).encode())
        return h.hexdigest()
