"""Reverse-mode autodiff over float64 numpy arrays.

Every forward operation returns a fresh ``Tensor`` that remembers its parents
and a closure computing the local vector-Jacobian product, so the recorded
graph doubles as the backward tape. Graphs are rebuilt on every forward pass;
nothing persists across iterations except parameter tensors and their
(additively accumulated) ``grad`` buffers.

Only work some later step reads is done. An op records a node only when a
parent requires a gradient, and inside a ``no_grad`` block it records none:
it returns a constant. A backward rule computes the gradient of each parent
that requires one and skips the rest (frozen weights, constant operands).
``layer_norm`` adds ``LN_EPS`` to each row's variance, and one ``_softmax``
serves ``softmax_rows``, ``attention`` and ``cross_entropy``'s gradient.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EmptyLossError, ShapeError

Array = np.ndarray
COSINE_EPS = 1e-12  # added to each squared norm in ``cosine_sq_rows``
LN_EPS = 1e-12  # added to each row's variance in ``layer_norm``


class Tensor:
    """Dense float64 value array with an optional gradient buffer."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
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


_recording = True


@contextmanager
def no_grad():
    """Within the block every op returns a constant: no parents, no backward.

    The previous state comes back on exit, also when the block raises, so
    blocks nest.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _node(values: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(values)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
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
        return [(t, _unbroadcast(g, t.shape)) for t in (a, b) if t.requires_grad]

    return _node(values, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    values = a.values * b.values

    def backward(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _unbroadcast(g * b.values, a.shape)))
        if b.requires_grad:
            grads.append((b, _unbroadcast(g * a.values, b.shape)))
        return grads

    return _node(values, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a weight-shaped 2-D ``b``, as one GEMM.

    ``a`` is viewed as [n, K] over its flattened leading axes, and the
    product is a single [n, K] @ [K, N] GEMM; so is the weight's gradient,
    A^T @ dC over all n rows. A gradient is computed only for an operand
    that requires one.
    """
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs a >=2-d left and a 2-d right operand, "
                         f"got {a.shape} @ {b.shape}")
    k, n = b.shape
    if a.shape[-1] != k:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a2 = a.values.reshape(-1, k)  # a view when ``a`` is contiguous
    values = (a2 @ b.values).reshape(a.shape[:-1] + (n,))

    def backward(g):
        g2 = g.reshape(-1, n)
        grads = []
        if a.requires_grad:
            grads.append((a, (g2 @ b.values.T).reshape(a.shape)))
        if b.requires_grad:
            grads.append((b, a2.T @ g2))
        return grads

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


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _wrap(x)
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


def tsum(x: Tensor) -> Tensor:
    """Sum of every element, a 0-d tensor."""
    x = _wrap(x)
    values = x.values.sum()

    def backward(g):
        return ((x, np.broadcast_to(g, x.shape).copy()),)

    return _node(values, (x,), backward)


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
    """Gather rows of ``table`` ([V, H]) for an integer id array of any shape.

    The backward sums each row's gradients with one ``np.bincount`` over
    ``id * H + column`` bins; it adds each bin in input order, as
    ``np.add.at`` would, so repeated ids accumulate bit for bit the same.
    """
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    values = table.values[ids]

    def backward(g):
        v, h = table.shape
        bins = (ids[..., None] * h + np.arange(h)).ravel()
        return ((table, np.bincount(bins, g.ravel(), v * h).reshape(v, h)),)

    return _node(values, (table,), backward)


def _softmax(x: Array) -> Array:
    """Softmax over the last axis, computed with max-subtraction for stability."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(probs: Array, g: Array) -> Array:
    """The gradient of a softmax's input, from its output ``probs`` and ``g``."""
    return probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction for stability."""
    x = _wrap(x)
    values = _softmax(x.values)

    def backward(g):
        return ((x, _softmax_backward(values, g)),)

    return _node(values, (x,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, key_bias: Array, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q``, ``k`` and ``v`` are [B, T, H] and split into ``num_heads`` heads
    of width dh = H / num_heads. ``key_bias`` is a constant array that
    broadcasts over [B, heads, T, T] scores (the encoder's is [B, 1, 1, T]).
    Each head computes softmax(q k^T / sqrt(dh) + key_bias) v, and the heads
    merge back into [B, T, H]. Forward and backward do the arithmetic of the
    composition of reshape, transpose, matmul, mul, add and softmax_rows, in
    its order, so values and gradients are bit for bit the same. The backward
    computes only the gradients of inputs that require one; q and k share
    one softmax backward.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape or q.shape[-1] % num_heads:
        raise ShapeError(f"attention needs equal [B, T, H] q, k, v with H divisible by "
                         f"{num_heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    b, t, h = q.shape
    dh = h // num_heads
    scale = 1.0 / np.sqrt(dh)

    def split(z: Array) -> Array:  # [B, T, H] -> [B, heads, T, dh]
        return z.reshape(b, t, num_heads, dh).transpose(0, 2, 1, 3)

    def merge(z: Array) -> Array:  # [B, heads, T, dh] -> [B, T, H]
        return z.transpose(0, 2, 1, 3).reshape(b, t, h)

    q4, k4, v4 = split(q.values), split(k.values), split(v.values)
    probs = _softmax(q4 @ np.swapaxes(k4, -1, -2) * scale + key_bias)
    values = merge(probs @ v4)

    def backward(g):
        g4 = split(g)
        grads = []
        if q.requires_grad or k.requires_grad:
            gs = _softmax_backward(probs, g4 @ np.swapaxes(v4, -1, -2)) * scale
            if q.requires_grad:
                grads.append((q, merge(gs @ k4)))
            if k.requires_grad:  # (q^T gs)^T: gs^T q is the same sum, rounded apart
                grads.append((k, merge(np.swapaxes(np.swapaxes(q4, -1, -2) @ gs, -1, -2))))
        if v.requires_grad:
            grads.append((v, merge(np.swapaxes(probs, -1, -2) @ g4)))
        return grads

    return _node(values, (q, k, v), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
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
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    values = xhat * gain.values + bias.values

    def backward(g):
        grads = []
        if x.requires_grad:
            dxhat = g * gain.values
            gx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            grads.append((x, gx))
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            grads.append((gain, (g * xhat).sum(axis=lead)))
        if bias.requires_grad:
            grads.append((bias, g.sum(axis=lead)))
        return grads

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


def cosine_sq_rows(u: Tensor, v: Tensor) -> Tensor:
    """Row-wise squared cosine similarity of two [n, H] tensors -> [n].

    Returns (u.v)^2 / ((|u|^2 + eps)(|v|^2 + eps)), eps = ``COSINE_EPS``: it
    keeps zero vectors finite and pins the output strictly inside [0, 1).
    """
    u, v = _wrap(u), _wrap(v)
    if u.shape != v.shape:
        raise ShapeError(f"cosine_sq_rows operands differ in shape: {u.shape} vs {v.shape}")
    s = (u.values * v.values).sum(axis=-1)
    p = (u.values * u.values).sum(axis=-1) + COSINE_EPS
    q = (v.values * v.values).sum(axis=-1) + COSINE_EPS
    # the exact ratio is strictly below 1; clamp away the last-ulp rounding
    values = np.minimum((s * s) / (p * q), 1.0)

    def backward(g):
        # d/du = 2s/(pq) v - 2s^2/(p^2 q) u, and symmetrically for v
        common = (2.0 * s / (p * q) * g)[..., None]
        grads = []
        if u.requires_grad:
            gu = common * v.values - (2.0 * s * s / (p * p * q) * g)[..., None] * u.values
            grads.append((u, gu))
        if v.requires_grad:
            gv = common * u.values - (2.0 * s * s / (p * q * q) * g)[..., None] * v.values
            grads.append((v, gv))
        return grads

    return _node(values, (u, v), backward)


# the label of a position no loss reads; ``objectives.labelled_rows`` drops them
IGNORE_LABEL = -1


def cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-likelihood over every row of [n, C] logits.

    ``labels`` is an int vector of n classes, each in [0, C). The caller
    passes only the rows the loss reads; zero rows raise ``EmptyLossError``.
    """
    logits = _wrap(logits)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"cross_entropy got logits {logits.shape} for {labels.shape[0]} labels"
        )
    n, n_classes = logits.shape
    if n == 0:
        raise EmptyLossError("cross_entropy over zero rows")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError(f"labels must lie in [0, {n_classes})")
    rows = np.arange(n)
    shifted = logits.values - logits.values.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1)) + logits.values.max(axis=-1)
    values = np.asarray((logsumexp - logits.values[rows, labels]).sum() / n)

    def backward(g):
        probs = _softmax(logits.values)
        probs[rows, labels] -= 1.0
        probs *= g / n
        return ((logits, probs),)

    return _node(values, (logits,), backward)
