"""Named parameter collections, Adam, and global gradient-norm clipping."""

from __future__ import annotations

import hashlib

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


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
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

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

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._params.items() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

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
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class Adam:
    """Adam with bias correction over a named subset of a ParamSet.

    Each instance owns its own first/second moment buffers, so two optimizers
    driving the same parameters from different losses never share state. The
    step is applied only to unfrozen parameters; frozen ones stay bit-identical.
    Gradients of the scoped parameters are cleared after each step.
    """

    def __init__(
        self,
        params: ParamSet,
        names=None,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.names = list(names) if names is not None else params.names()
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(params[n].values) for n in self.names}
        self.v = {n: np.zeros_like(params[n].values) for n in self.names}

    def step(self) -> None:
        self.t += 1
        for name in self.names:
            p = self.params[name]
            if not p.requires_grad:
                continue
            if p.grad is None:
                raise ContractError(f"unfrozen parameter {name!r} has no gradient")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
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
