"""Reverse-mode autodiff over float64 numpy arrays.

Every forward operation returns a fresh ``Tensor`` that remembers its parents
and a closure computing the local vector-Jacobian product, so the recorded
graph doubles as the backward tape. Graphs are rebuilt on every forward pass;
nothing persists across iterations except parameter tensors and their
(additively accumulated) ``grad`` buffers.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EmptyLossError, ShapeError

Array = np.ndarray


def _as_array(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    return arr


class Tensor:
    """Dense float64 value array with an optional gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = _as_array(values)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """View of the same values with no graph link and no gradient flow."""
        return Tensor(self.values, requires_grad=False)

    def accumulate_grad(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g

    def backward(self, seed: Array | None = None) -> None:
        """Propagate gradients from this tensor to every reachable parent.

        Gradients accumulate additively into ``grad``; callers zero them
        explicitly (the optimizer does so after each step).
        """
        if not self.requires_grad:
            return
        if seed is None:
            seed = np.ones_like(self.values)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        # local grads buffered per node for this pass only
        pending: dict[int, Array] = {id(self): np.asarray(seed, dtype=np.float64)}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.accumulate_grad(g)
                continue
            for parent, pg in node._backward(g):
                if not parent.requires_grad:
                    continue
                if id(parent) in pending:
                    pending[id(parent)] = pending[id(parent)] + pg
                else:
                    pending[id(parent)] = pg


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(values: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(values, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes numpy broadcast when producing it."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    values = a.values + b.values

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _node(values, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    values = a.values * b.values

    def backward(g):
        return (
            (a, _unbroadcast(g * b.values, a.shape)),
            (b, _unbroadcast(g * a.values, b.shape)),
        )

    return _node(values, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    Backward: dA = dC @ B^T, dB = A^T @ dC (transposes on the last two axes),
    summed over any broadcast leading axes.
    """
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    values = a.values @ b.values

    def backward(g):
        ga = g @ np.swapaxes(b.values, -1, -2)
        gb = np.swapaxes(a.values, -1, -2) @ g
        return ((a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape)))

    return _node(values, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)
    values = np.maximum(x.values, 0.0)

    def backward(g):
        return ((x, g * (x.values > 0.0)),)

    return _node(values, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = _wrap(x)
    values = np.tanh(x.values)

    def backward(g):
        return ((x, g * (1.0 - values * values)),)

    return _node(values, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    x = _wrap(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    values = np.transpose(x.values, axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return ((x, np.transpose(g, inverse)),)

    return _node(values, (x,), backward)


def swap_last(x: Tensor) -> Tensor:
    """Transpose of the last two axes only."""
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return transpose(x, axes)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _wrap(x)
    old = x.shape
    values = x.values.reshape(shape)

    def backward(g):
        return ((x, g.reshape(old)),)

    return _node(values, (x,), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    values = x.values.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return ((x, np.broadcast_to(g, x.shape).copy()),)
        gx = g
        if not keepdims:
            gx = np.expand_dims(gx, axis)
        return ((x, np.broadcast_to(gx, x.shape).copy()),)

    return _node(values, (x,), backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    count = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def select_token(x: Tensor, position: int) -> Tensor:
    """Pick one sequence position from a [B, T, H] tensor -> [B, H]."""
    x = _wrap(x)
    values = x.values[:, position, :].copy()

    def backward(g):
        gx = np.zeros_like(x.values)
        gx[:, position, :] = g
        return ((x, gx),)

    return _node(values, (x,), backward)


def embedding_lookup(table: Tensor, ids: Array) -> Tensor:
    """Gather rows of ``table`` ([V, H]) for an integer id array of any shape."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    values = table.values[ids]

    def backward(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, ids, g)
        return ((table, gt),)

    return _node(values, (table,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction for stability."""
    x = _wrap(x)
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    values = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * values).sum(axis=-1, keepdims=True)
        return ((x, values * (g - dot)),)

    return _node(values, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale + shift."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    h = x.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise ShapeError(
            f"layer_norm affine params must be ({h},), got {gain.shape} and {bias.shape}"
        )
    mu = x.values.mean(axis=-1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    values = xhat * gain.values + bias.values

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=lead)
        g_bias = g.sum(axis=lead)
        dxhat = g * gain.values
        gx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return ((x, gx), (gain, g_gain), (bias, g_bias))

    return _node(values, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; the kept mask is a constant of the forward pass."""
    if p <= 0.0:
        return x
    x = _wrap(x)
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    values = x.values * keep

    def backward(g):
        return ((x, g * keep),)

    return _node(values, (x,), backward)


def cosine_sq_rows(u: Tensor, v: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise squared cosine similarity of two [n, H] tensors -> [n].

    Returns (u.v)^2 / ((|u|^2 + eps)(|v|^2 + eps)); eps on each squared norm
    keeps zero vectors finite and pins the output strictly inside [0, 1).
    """
    u, v = _wrap(u), _wrap(v)
    if u.shape != v.shape:
        raise ShapeError(f"cosine_sq operands differ in shape: {u.shape} vs {v.shape}")
    if eps <= 0.0:
        raise ValueError("cosine_sq eps must be positive")
    s = (u.values * v.values).sum(axis=-1)
    p = (u.values * u.values).sum(axis=-1) + eps
    q = (v.values * v.values).sum(axis=-1) + eps
    # the exact ratio is strictly below 1; clamp away the last-ulp rounding
    values = np.minimum((s * s) / (p * q), 1.0)

    def backward(g):
        # d/du = 2s/(pq) v - 2s^2/(p^2 q) u, and symmetrically for v
        common = (2.0 * s / (p * q) * g)[..., None]
        gu = common * v.values - (2.0 * s * s / (p * p * q) * g)[..., None] * u.values
        gv = common * u.values - (2.0 * s * s / (p * q * q) * g)[..., None] * v.values
        return ((u, gu), (v, gv))

    return _node(values, (u, v), backward)


def cosine_sq(u: Tensor, v: Tensor, eps: float = 1e-12) -> Tensor:
    """Squared cosine similarity of two H-vectors as a differentiable scalar."""
    u, v = _wrap(u), _wrap(v)
    if u.ndim != 1 or v.ndim != 1:
        raise ShapeError(f"cosine_sq expects vectors, got {u.shape} and {v.shape}")
    rows = cosine_sq_rows(reshape(u, (1, u.shape[0])), reshape(v, (1, v.shape[0])), eps)
    return reshape(rows, ())


IGNORE_LABEL = -1


def cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-likelihood over rows whose label is not ``IGNORE_LABEL``.

    ``logits`` is [n, C]; ``labels`` is an int vector of length n. Ignored rows
    contribute neither loss nor gradient.
    """
    logits = _wrap(logits)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"cross_entropy got logits {logits.shape} for {labels.shape[0]} labels"
        )
    active = labels != IGNORE_LABEL
    count = int(active.sum())
    if count == 0:
        raise EmptyLossError("cross_entropy: every position carries the ignore marker")
    n_classes = logits.shape[1]
    if labels[active].min() < 0 or labels[active].max() >= n_classes:
        raise ContractError(f"labels must lie in [0, {n_classes}) or equal {IGNORE_LABEL}")
    shifted = logits.values - logits.values.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1)) + logits.values.max(axis=-1)
    picked = logits.values[np.arange(labels.shape[0]), np.where(active, labels, 0)]
    nll = np.where(active, logsumexp - picked, 0.0)
    values = np.asarray(nll.sum() / count)

    def backward(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        gl = probs
        gl[np.arange(labels.shape[0]), np.where(active, labels, 0)] -= 1.0
        gl *= (active / count)[:, None] * g
        return ((logits, gl),)

    return _node(values, (logits,), backward)
