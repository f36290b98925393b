"""Reverse-mode autodiff over float64 numpy arrays.

Every forward operation returns a fresh ``Tensor`` that remembers its parents
and a closure computing the local vector-Jacobian product, so the recorded
graph doubles as the backward tape. Graphs are rebuilt on every forward pass;
nothing persists across iterations except parameter tensors and their
(additively accumulated) ``grad`` buffers.

Only work some later step reads is done. An op records a node only when a
parent requires a gradient, else it returns a constant: the freeze flag
``requires_grad`` is the one graph switch. A backward rule computes the
gradient of each parent that requires one and skips the rest.
``grad_check`` compares a backward against central differences; its
perturbed evaluations run frozen.
Ops that the encoder would otherwise chain are fused into one node each,
with the chain's arithmetic in its order: ``linear`` is ``x @ w + b`` (and
``matmul`` is ``linear`` without a bias), ``layer_norm`` normalises the
residual sum ``x + y`` (adding ``LN_EPS`` to each row's variance),
``attention`` is multi-head scaled dot-product attention, and ``adapter`` is
the bottleneck ``relu(x @ w_down) @ w_up``, plus ``x`` with its residual.
One ``_softmax`` serves ``softmax_rows``, ``attention`` and
``cross_entropy``'s gradient, and one ``_minus_row_max`` subtracts each
row's max for it and for ``cross_entropy``'s forward.

An op writes in place only into an array it allocated in the same call,
never into an input, a gradient handed to it or an array it returned
earlier. Each element still goes through the same ufuncs in the same order,
so values and gradients are bit for bit those of the out-of-place chain. A
sum's order is part of that arithmetic, as rounding depends on it; a max's
is not, since a max rounds nothing, so ``_minus_row_max`` may reduce a row
in any order. (Of two tied values only +0 and -0 differ in their bits, and
each use of a row max gives both the same result: ``exp`` of ``x - m``, and
``cross_entropy``'s ``+ m`` to a log that is at least 0.)

Ops here and in ``objectives``, ``optim``, ``encoder`` and ``training`` call the
ufunc or array method that does the work (``np.add.reduce`` for ``.sum``, ``_row_mean``
for ``.mean``, ...), not numpy's Python-level wrappers, which cost more than these small
arrays' arithmetic and call that same work: the bits are the same.

A row set ``(read, (B, T))`` lets ``linear`` and ``dropout`` run on the flat,
strictly increasing rows ``read`` of a [B, T, ...] input alone, ``take_rows``
picks those rows and ``scatter_rows`` puts them back into zeros. Each value
and gradient on the read rows, and each weight's gradient, is then bit for
bit that of the full-size op whose other rows are zero, by four rules: a
weight's gradient is one GEMM over all B*T rows, zero where none was
computed; a bias's is summed over B, then T, as for a [B, T, N] gradient;
an input's gradient is read from the full-size product dC @ w^T (a GEMM over
fewer rows rounds apart, for the transposed operand most); and dropout draws
the full [B, T, H] mask, so the generator moves as far. The forward product
``x @ w`` rounds each row alike over any row count.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EmptyLossError, NumericError, ShapeError, VocabError

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
            self.grad = np.zeros(self.values.shape)
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
                if id(parent) in pending:
                    pending[id(parent)] = pending[id(parent)] + pg
                else:
                    pending[id(parent)] = pg


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(values: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(values)
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._backward = True, tuple(parents), backward
            break
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes numpy broadcast when producing it."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


def _row_mean(x: Array) -> Array:
    """``x.mean(axis=-1, keepdims=True)`` by ``mean``'s own arithmetic, so bit for bit."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    return np.divide(m, x.shape[-1], out=m)


def _full_rows(rows: Array, read: Array, lead: tuple[int, ...]) -> Array:
    """A zero ``lead + rows.shape[1:]`` array holding the [n, ...] ``rows`` at its flat rows
    ``read``."""
    full = np.zeros(lead + rows.shape[1:])
    full.reshape((-1,) + rows.shape[1:])[read] = rows
    return full


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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, rows=None) -> Tensor:
    """``x @ w + b`` for a 2-D weight ``w`` and an optional bias ``b`` of its width, as one node.

    ``x`` is viewed as [n, K] over its flattened leading axes, so the product
    and the weight's gradient x^T @ dC are each one GEMM over all n rows; the
    bias is added after the product. A gradient is computed only for an
    input that requires one.

    With a row set ``rows = (read, (B, T))``, ``x`` is [n, K], the rows ``read``
    of a [B, T, K] input, and only the product runs on those n rows: the
    backward puts dC into zero [B, T, N] rows and keeps the full-size node's
    GEMMs and bias sums (the module's rules for a row set).
    """
    x, w, b = _wrap(x), _wrap(w), b if b is None else _wrap(b)
    if (x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]
            or b is not None and b.shape != w.shape[1:]
            or rows is not None and x.shape[:-1] != np.shape(rows[0])):
        raise ShapeError(f"linear needs a >=2-d x (one row per read row), a 2-d w and an "
                         f"optional bias of w's width, got {x.shape} @ {w.shape}"
                         + ("" if b is None else f" + {b.shape}"))
    k, n = w.shape
    x2 = x.values.reshape(-1, k)  # a view when ``x`` is contiguous
    values = (x2 @ w.values).reshape(x.shape[:-1] + (n,))
    if b is not None:
        values += b.values

    def backward(g):
        if rows is not None:
            read, lead = rows
            g = _full_rows(g, read, lead)
        g2 = g.reshape(-1, n)
        grads = []
        if x.requires_grad:
            gx = g2 @ w.values.T
            grads.append((x, (gx if rows is None else gx[read]).reshape(x.shape)))
        if w.requires_grad:
            xs = x2 if rows is None else _full_rows(x2, read, lead).reshape(-1, k)
            grads.append((w, xs.T @ g2))
        if b is not None and b.requires_grad:
            grads.append((b, _unbroadcast(g, b.shape)))
        return grads

    return _node(values, (x, w) if b is None else (x, w, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a weight-shaped 2-D ``b``: ``linear`` without a bias."""
    return linear(a, b)


def adapter(x: Tensor, w_down: Tensor, w_up: Tensor, residual: bool = True) -> Tensor:
    """``relu(x @ w_down) @ w_up``, plus ``x`` when ``residual``, as one node.

    ``w_down`` is [H, d] and ``w_up`` [d, H] for an ``x`` of width H with at
    least two axes. Forward and backward do the arithmetic of the chain
    ``matmul``, ``relu``, ``matmul`` (and ``add``) in its order, so values and
    gradients are bit for bit the same. A gradient is computed only for an
    input that requires one.
    """
    x, w_down, w_up = _wrap(x), _wrap(w_down), _wrap(w_up)
    if (x.ndim < 2 or w_down.ndim != 2 or w_down.shape[0] != x.shape[-1]
            or w_up.shape != w_down.shape[::-1]):
        raise ShapeError(f"adapter needs a >=2-d x of width H, an [H, d] w_down and a "
                         f"[d, H] w_up, got {x.shape}, {w_down.shape}, {w_up.shape}")
    h = x.shape[-1]
    x2 = x.values.reshape(-1, h)  # a view when ``x`` is contiguous
    inner = x2 @ w_down.values
    np.maximum(inner, 0.0, out=inner)
    values = inner @ w_up.values
    if residual:
        values += x2

    def backward(g):
        g2 = g.reshape(-1, h)
        grads = []
        if x.requires_grad or w_down.requires_grad:
            g_inner = g2 @ w_up.values.T
            g_inner *= inner > 0.0  # relu passes a gradient where its input was positive
            if x.requires_grad:
                gx = g_inner @ w_down.values.T
                if residual:
                    gx += g2
                grads.append((x, gx.reshape(x.shape)))
            if w_down.requires_grad:
                grads.append((w_down, x2.T @ g_inner))
        if w_up.requires_grad:
            grads.append((w_up, inner.T @ g2))
        return grads

    return _node(values.reshape(x.shape), (x, w_down, w_up), backward)


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
    values = x.values.transpose(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def backward(g):
        return ((x, g.transpose(inverse)),)

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
    values = np.add.reduce(x.values, axis=None)

    def backward(g):
        return ((x, np.broadcast_to(g, x.shape).copy()),)

    return _node(values, (x,), backward)


def select_token(x: Tensor, position: int) -> Tensor:
    """Pick one sequence position from a [B, T, H] tensor -> [B, H]."""
    x = _wrap(x)
    values = x.values[:, position, :].copy()

    def backward(g):
        gx = np.zeros(x.shape)
        gx[:, position, :] = g
        return ((x, gx),)

    return _node(values, (x,), backward)


def take_rows(x: Tensor, read: Array) -> Tensor:
    """The flat rows ``read`` of a [B, T, H] tensor -> [n, H]; the backward writes the
    gradient into zero rows, so it keeps each value's bits, a zero's sign too (the sums
    of ``embedding_lookup``'s backward would turn -0 into +0)."""
    x = _wrap(x)
    values = x.values.reshape(-1, x.shape[-1])[read]

    def backward(g):
        return ((x, _full_rows(g, read, x.shape[:-1])),)

    return _node(values, (x,), backward)


def scatter_rows(x: Tensor, read: Array, lead: tuple[int, ...]) -> Tensor:
    """[n, H] rows placed at the flat rows ``read`` of a zero ``lead + (H,)`` tensor: the
    adjoint of ``take_rows``."""
    x = _wrap(x)
    values = _full_rows(x.values, read, lead)

    def backward(g):
        return ((x, g.reshape(-1, x.shape[-1])[read]),)

    return _node(values, (x,), backward)


def integer_array(values, name: str) -> Array:
    """``values`` as an array; ``ContractError`` unless it is empty or of an integer dtype,
    since a cast would truncate a float and read a bool as 0 or 1."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ContractError(f"{name} must be integers, of an integer dtype, got {values.dtype}")
    return values


def index_ids(ids, size: float, name: str) -> Array:
    """``ids`` as int64: ``integer_array``'s ContractError, then ``VocabError`` naming the
    negative id, else the largest, unless each lies in [0, size), since an index would wrap
    a negative one. A ``size`` of ``math.inf`` bounds them from below only."""
    ids = integer_array(ids, name)
    if ids.size:
        lo, hi = np.minimum.reduce(ids, axis=None), np.maximum.reduce(ids, axis=None)
        if lo < 0 or hi >= size:
            raise VocabError(f"{name} must lie in [0, {size}), got {lo if lo < 0 else hi}")
    return ids.astype(np.int64, copy=False)


def embedding_lookup(table: Tensor, ids: Array) -> Tensor:
    """Gather rows of ``table`` ([V, H]) for an integer id array of any shape, each in [0, V).

    The backward sums each row's gradients with one ``np.bincount`` over
    ``id * H + column`` bins; it adds each bin in input order, as
    ``np.add.at`` would, so repeated ids accumulate bit for bit the same.
    """
    table = _wrap(table)
    ids = index_ids(ids, table.shape[0], "ids")
    values = table.values[ids]

    def backward(g):
        v, h = table.shape
        bins = (ids[..., None] * h + np.arange(h)).ravel()
        return ((table, np.bincount(bins, g.ravel(), v * h).reshape(v, h)),)

    return _node(values, (table,), backward)


# rows up to this long take their max across a copy with the row axis first: numpy's max
# over a short last axis costs several times an elementwise max across contiguous rows.
# Measured with numpy 2.4 on a 2-CPU Xeon, float64 arrays of 0.2-4 MB: the copy takes
# 0.2-0.8x the time for rows of 5 to 28; at 32 it loses past ~1.5 MB (up to 2.5x), at 64
# and 128 at every size (1.4-6x)
SHORT_ROW = 28


def _minus_row_max(x: Array) -> tuple[Array, Array]:
    """``x - m`` in a fresh array, and ``m = x.max(axis=-1, keepdims=True)``, bit for bit.

    A max may take its inputs in any order, so a row of at most ``SHORT_ROW``
    is reduced across a copy with the row axis first, made in the buffer that
    then takes ``x - m``.
    """
    if x.shape[-1] > SHORT_ROW:
        m = np.maximum.reduce(x, axis=-1, keepdims=True)
        return x - m, m
    buf = np.empty(x.size)
    rows = buf.reshape(x.shape[-1:] + x.shape[:-1])
    np.copyto(rows, x.transpose((x.ndim - 1,) + tuple(range(x.ndim - 1))))
    m = np.maximum.reduce(rows, axis=0)[..., None]
    return np.subtract(x, m, out=buf.reshape(x.shape)), m


def _softmax(x: Array) -> Array:
    """Softmax over the last axis, computed with max-subtraction for stability."""
    e, _ = _minus_row_max(x)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_backward(probs: Array, g: Array) -> Array:
    """The gradient of a softmax's input, from its output ``probs`` and ``g``."""
    gx = g * probs
    np.subtract(g, np.add.reduce(gx, axis=-1, keepdims=True), out=gx)
    gx *= probs
    return gx


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
    bias, want = np.shape(key_bias), (b, num_heads, t, t)
    if len(bias) > 4 or any(d not in (1, n) for d, n in zip(bias[::-1], want[::-1])):
        raise ShapeError(f"key_bias of shape {bias} does not broadcast to the {want} scores")
    dh = h // num_heads
    scale = 1.0 / np.sqrt(dh)

    def split(z: Array) -> Array:  # [B, T, H] -> [B, heads, T, dh]
        return z.reshape(b, t, num_heads, dh).transpose(0, 2, 1, 3)

    def merge(z: Array) -> Array:  # [B, heads, T, dh] -> [B, T, H]
        return z.transpose(0, 2, 1, 3).reshape(b, t, h)

    q4, k4, v4 = split(q.values), split(k.values), split(v.values)
    scores = q4 @ k4.swapaxes(-1, -2)
    scores *= scale
    scores += key_bias
    probs = _softmax(scores)
    values = merge(probs @ v4)

    def backward(g):
        g4 = split(g)
        grads = []
        if q.requires_grad or k.requires_grad:
            gs = _softmax_backward(probs, g4 @ v4.swapaxes(-1, -2))
            gs *= scale
            if q.requires_grad:
                grads.append((q, merge(gs @ k4)))
            if k.requires_grad:  # (q^T gs)^T: gs^T q is the same sum, rounded apart
                grads.append((k, merge((q4.swapaxes(-1, -2) @ gs).swapaxes(-1, -2))))
        if v.requires_grad:
            grads.append((v, merge(probs.swapaxes(-1, -2) @ g4)))
        return grads

    return _node(values, (q, k, v), backward)


def layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the residual sum ``x + y`` over the last axis, then scale + shift.

    One node for ``add`` then a norm: the sum's rows go to zero mean and unit
    variance (``LN_EPS`` added to the variance). ``x`` and ``y`` share a shape,
    and both receive the sum's gradient, computed once.
    """
    x, y, gain, bias = _wrap(x), _wrap(y), _wrap(gain), _wrap(bias)
    if y.shape != x.shape:
        raise ShapeError(f"layer_norm residual operands differ in shape: {x.shape} vs {y.shape}")
    h = x.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise ShapeError(
            f"layer_norm affine params must be ({h},), got {gain.shape} and {bias.shape}"
        )
    xhat = x.values + y.values  # the sum, centred, then normalised in this one buffer
    xhat -= _row_mean(xhat)
    inv = 1.0 / np.sqrt(_row_mean(np.square(xhat)) + LN_EPS)
    xhat *= inv
    values = xhat * gain.values
    values += bias.values

    def backward(g):
        grads = []
        if x.requires_grad or y.requires_grad:
            gs = g * gain.values  # dxhat, then the sum's gradient in the same buffer
            proj = gs * xhat  # dxhat * xhat, then xhat times its row mean
            np.multiply(xhat, _row_mean(proj), out=proj)
            gs -= _row_mean(gs)
            gs -= proj
            gs *= inv
            grads += [(t, gs) for t in (x, y) if t.requires_grad]
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            grads.append((gain, np.add.reduce(g * xhat, axis=lead)))
        if bias.requires_grad:
            grads.append((bias, np.add.reduce(g, axis=lead)))
        return grads

    return _node(values, (x, y, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, rows=None) -> Tensor:
    """Inverted dropout; the kept mask is a constant of the forward pass.

    With a row set ``rows = (read, (B, T))`` (as ``linear``'s), ``x`` holds the
    rows ``read`` of a [B, T, H] input: the mask is drawn for all [B, T, H],
    so ``rng`` moves as far as for the full input, and its rows ``read`` apply.
    """
    if p <= 0.0:
        return x
    x = _wrap(x)
    kept = rng.random(x.shape if rows is None else rows[1] + x.shape[-1:]) >= p
    if rows is not None:
        kept = kept.reshape(-1, x.shape[-1])[rows[0]]
    keep = kept / (1.0 - p)
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
    s = np.add.reduce(u.values * v.values, axis=-1)
    p = np.add.reduce(u.values * u.values, axis=-1) + COSINE_EPS
    q = np.add.reduce(v.values * v.values, axis=-1) + COSINE_EPS
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


# the label of a position no main loss reads; ``objectives.labelled_rows`` leaves it out
IGNORE_LABEL = -1


def cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean negative log-likelihood over every row of [n, C] logits.

    ``labels`` is an int vector of n classes, each in [0, C). The caller
    passes only the rows the loss reads; zero rows raise ``EmptyLossError``.
    """
    logits = _wrap(logits)
    labels = np.asarray(labels).reshape(-1)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"cross_entropy got logits {logits.shape} for {labels.shape[0]} labels"
        )
    n, n_classes = logits.shape
    if n == 0:
        raise EmptyLossError("cross_entropy over zero rows")
    labels = index_ids(labels, n_classes, "labels")
    rows = np.arange(n)
    shifted, row_max = _minus_row_max(logits.values)
    logsumexp = np.log(np.add.reduce(np.exp(shifted, out=shifted), axis=-1)) + row_max[:, 0]
    values = np.asarray(np.add.reduce(logsumexp - logits.values[rows, labels], axis=None) / n)

    def backward(g):
        probs = _softmax(logits.values)
        probs[rows, labels] -= 1.0
        probs *= g / n
        return ((logits, probs),)

    return _node(values, (logits,), backward)


STEP = 1e-5  # each input coordinate moves by this much each way


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
) -> float:
    """Compare the backward pass of ``f`` against central differences.

    ``f`` must map the given tensors to a differentiable scalar. Returns the
    maximum over all coordinates of |analytic - numeric| / max(1, |numeric|).
    The inputs end frozen, returning or raising, each keeping its gradient in ``grad``.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    try:
        out = f(inputs)
        if out.shape != ():
            raise ShapeError(f"grad_check needs a scalar function, got shape {out.shape}")
        if not math.isfinite(out.item()):
            raise NumericError("grad_check: function value is non-finite at the base point")
        out.backward()
    finally:
        for t in inputs:
            t.requires_grad = False  # so the perturbed evaluations record no graph
    analytic = [t.grad if t.grad is not None else np.zeros(t.shape) for t in inputs]

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
