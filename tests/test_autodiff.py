import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab.autodiff import (
    LN_EPS,
    SHORT_ROW,
    Tensor,
    adapter,
    add,
    attention,
    cosine_sq_rows,
    cross_entropy,
    dropout,
    embedding_lookup,
    grad_check,
    layer_norm,
    linear,
    matmul,
    mul,
    relu,
    reshape,
    scatter_rows,
    select_token,
    softmax_rows,
    swap_last,
    take_rows,
    tanh,
    transpose,
    tsum,
    _row_mean,
)
from adapterlab.errors import ContractError, EmptyLossError, ShapeError, VocabError


def rng(seed=0):
    return np.random.default_rng(seed)


# --- matmul -----------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(a, b).values, b.values)


def test_matmul_selector_row():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0], [7.0]])
    np.testing.assert_array_equal(matmul(a, b).values, [[5.0], [0.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_refuses_a_right_operand_not_2d():
    # batched products live inside ``attention``; matmul multiplies by weights
    with pytest.raises(ShapeError, match=r"\(2, 2, 3, 4\).*\(2, 2, 4, 3\)"):
        matmul(Tensor(np.zeros((2, 2, 3, 4))), Tensor(np.zeros((2, 2, 4, 3))))


def test_matmul_gradients_vs_finite_differences():
    r = rng(1)
    a = Tensor(r.normal(size=(3, 4)))
    b = Tensor(r.normal(size=(4, 2)))

    def f(ts):
        return tsum(mul(matmul(ts[0], ts[1]), Tensor(r2_weights)))

    r2_weights = rng(2).normal(size=(3, 2))  # non-trivial seed to probe all entries
    assert grad_check(f, [a, b]) < 1e-6


def test_matmul_batched_gradcheck():
    r = rng(3)
    a = Tensor(r.normal(size=(2, 3, 4)))
    b = Tensor(r.normal(size=(4, 5)))
    w = rng(4).normal(size=(2, 3, 5))

    def f(ts):
        return tsum(mul(matmul(ts[0], ts[1]), Tensor(w)))

    assert grad_check(f, [a, b]) < 1e-6


# matmul is one flattened GEMM over the left operand's rows; operands as the
# encoder makes them, including non-contiguous views: a transposed activation
# on the left, the tied MLM head's swap_last of the [V, H] embedding table on
# the right
FLAT_MATMUL_CASES = {
    "3d_transposed_left": ((3, 2, 4), (1, 0, 2), (4, 5), False),
    "4d_transposed_left": ((2, 3, 2, 4), (0, 2, 1, 3), (4, 5), False),
    "3d_swapped_table": ((2, 3, 4), None, (5, 4), True),
    "4d_swapped_table": ((2, 2, 3, 4), None, (5, 4), True),
}


def _flat_operands(case, ts):
    _, axes, _, swap = FLAT_MATMUL_CASES[case]
    a = ts[0] if axes is None else transpose(ts[0], axes)
    b = swap_last(ts[1]) if swap else ts[1]
    return a, b


@pytest.mark.parametrize("case", sorted(FLAT_MATMUL_CASES))
def test_matmul_flat_gradcheck(case):
    a_shape, _, b_shape, _ = FLAT_MATMUL_CASES[case]
    r = rng(5)
    ts = [Tensor(r.normal(size=a_shape)), Tensor(r.normal(size=b_shape))]
    a, b = _flat_operands(case, ts)
    assert not (a.values.flags.c_contiguous and b.values.flags.c_contiguous)
    w = rng(6).normal(size=a.shape[:-1] + (b.shape[-1],))

    def f(ts):
        return tsum(mul(matmul(*_flat_operands(case, ts)), Tensor(w)))

    assert grad_check(f, ts) < 1e-6


@pytest.mark.parametrize("shapes", [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)),
                                    ((2, 2, 3, 4), (4, 5))],
                         ids=["2d", "3d_2d", "4d_2d"])
def test_matmul_values_match_numpy(shapes):
    r = rng(7)
    a, b = (r.normal(size=s) for s in shapes)

    def transposed(x):  # equal values, stored transposed in the last two axes
        return np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2)

    for x, y in ((a, b), (transposed(a), b), (a, transposed(b))):
        out, ref = matmul(Tensor(x), Tensor(y)).values, np.matmul(x, y)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


# --- attention ------------------------------------------------------------------


def key_bias(b, t, padded):
    """A [B, 1, 1, T] bias of -1e9 on the last ``padded[i]`` keys of sequence i."""
    bias = np.zeros((b, 1, 1, t))
    for i, n in enumerate(padded):
        bias[i, ..., t - n:] = -1e9
    return bias


KEY_BIAS = key_bias(2, 3, (1, 2))


def reference_attention(q, k, v, bias, heads, g):
    """Values, and the q, k and v gradients for an output gradient ``g``, of
    the composition attention replaced: split heads with reshape + transpose,
    matmul with swap_last(k), mul by 1/sqrt(dh), add the bias, softmax_rows,
    matmul with v, merge; each op's numpy arithmetic in plain numpy."""
    b, t, h = q.shape
    dh = h // heads
    split = lambda z: np.transpose(z.reshape(b, t, heads, dh), (0, 2, 1, 3))
    merge = lambda z: np.transpose(z, (0, 2, 1, 3)).reshape(b, t, h)
    q4, k4, v4 = split(q), split(k), split(v)
    kt = np.transpose(k4, (0, 1, 3, 2))
    scale = np.asarray(1.0 / np.sqrt(dh))
    scores = q4 @ kt * scale + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    g4 = split(g)
    gprobs = g4 @ np.swapaxes(v4, -1, -2)
    gscores = probs * (gprobs - (gprobs * probs).sum(axis=-1, keepdims=True)) * scale
    gkt = np.swapaxes(q4, -1, -2) @ gscores
    return (merge(probs @ v4), merge(gscores @ np.swapaxes(kt, -1, -2)),
            merge(np.transpose(gkt, (0, 1, 3, 2))), merge(np.swapaxes(probs, -1, -2) @ g4))


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("t", [1, 3])
def test_attention_gradcheck_every_input_subset(heads, t):
    r = rng(40 + heads + t)
    qkv = [r.normal(size=(2, t, 4)) for _ in range(3)]
    bias = key_bias(2, t, (1, 1) if t == 1 else (1, 2))
    w = rng(41).normal(size=(2, t, 4))
    for mask in range(1, 8):  # each non-empty subset of {q, k, v}
        ts = [Tensor(x.copy()) for x in qkv]
        picked = [ts[i] for i in range(3) if mask >> i & 1]
        f = lambda _: tsum(mul(attention(*ts, bias, heads), Tensor(w)))
        assert grad_check(f, picked) < 1e-6, mask
        assert all(x.grad is None for x in ts if x not in picked)


# (B, T, H, heads, padded keys per sequence), keyed by the heads of the two T = 3 cases;
# "bench" is the benchmark's evaluation batch, "long" has rows past ``SHORT_ROW``, so its
# softmax takes numpy's row max where the others take the transposed copy's
ATTENTION_BYTES_CASES = {
    "1": (2, 3, 4, 1, (1, 2)),
    "2": (2, 3, 4, 2, (1, 2)),
    "bench": (16, 13, 32, 4, tuple(i % 13 for i in range(16))),
    "long": (2, SHORT_ROW + 3, 8, 2, (0, 9)),
}


@pytest.mark.parametrize("storage", ["contiguous", "transposed"])
@pytest.mark.parametrize("case", sorted(ATTENTION_BYTES_CASES))
def test_attention_matches_numpy_composition_bytes(case, storage):
    b, t, h, heads, padded = ATTENTION_BYTES_CASES[case]
    bias = key_bias(b, t, padded)
    r = rng(42)
    qkv = [r.normal(size=(b, t, h)) for _ in range(3)]
    if storage == "transposed":  # equal values, stored transposed in the last two axes
        qkv = [np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2) for x in qkv]
    g = r.normal(size=(b, t, h))
    ts = [Tensor(x, requires_grad=True) for x in qkv]
    out = attention(*ts, bias, heads)
    grads = dict((id(t), pg) for t, pg in out._backward(g))
    got = [out.values] + [grads[id(t)] for t in ts]
    want = reference_attention(*qkv, bias, heads, g)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_attention_padded_key_gets_zero_probability_and_gradient():
    # one head with v = I: each output row is that query's key probabilities
    r = rng(43)
    q, k = (Tensor(r.normal(scale=3.0, size=(2, 3, 3)), requires_grad=True)
            for _ in range(2))
    v = Tensor(np.broadcast_to(np.eye(3), (2, 3, 3)).copy(), requires_grad=True)
    out = attention(q, k, v, KEY_BIAS, 1)
    padded = KEY_BIAS[:, 0, 0, :] < 0  # [B, T]
    assert np.all(out.values.transpose(0, 2, 1)[padded] == 0.0)
    assert np.all(out.values.transpose(0, 2, 1)[~padded] > 0.0)
    np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    tsum(mul(out, Tensor(r.normal(size=(2, 3, 3))))).backward()
    assert np.all(k.grad[padded] == 0.0) and np.all(v.grad[padded] == 0.0)
    # real keys do get a gradient (sequence 1 has one real key: its k is inert)
    assert np.all(k.grad[0, :2] != 0.0) and np.all(v.grad[~padded] != 0.0)


def test_attention_refuses_mismatched_inputs():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        attention(x, Tensor(np.zeros((2, 3, 6))), x, KEY_BIAS, 2)
    with pytest.raises(ShapeError):
        attention(x, x, x, KEY_BIAS, 3)  # 4 is not divisible into 3 heads


@pytest.mark.parametrize("shape", [(2, 1, 1, 4), (3, 1, 1, 3), (2, 2, 3, 3, 3)])
def test_attention_refuses_a_key_bias_that_does_not_broadcast_to_the_scores(shape):
    x = Tensor(np.zeros((2, 3, 4)))  # [2, 2 heads, 3, 3] scores
    with pytest.raises(ShapeError, match="key_bias"):
        attention(x, x, x, np.zeros(shape), 2)
    assert attention(x, x, x, np.zeros((2, 1, 1, 3)), 2).shape == (2, 3, 4)


# --- cosine_sq_rows ----------------------------------------------------------


def one_row_cos2(u, v) -> float:
    """Squared cosine of two vectors, through a one-row cosine_sq_rows."""
    return cosine_sq_rows(Tensor([u]), Tensor([v])).values[0]


def test_cosine_sq_orthogonal():
    assert one_row_cos2([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_sq_parallel():
    assert abs(one_row_cos2([2.0, 2.0], [1.0, 1.0]) - 1.0) < 1e-10


def test_cosine_sq_half():
    assert abs(one_row_cos2([1.0, 0.0], [1.0, 1.0]) - 0.5) < 1e-10


def test_cosine_sq_gradcheck():
    r = rng(5)
    u = Tensor(r.normal(size=(1, 7)))
    v = Tensor(r.normal(size=(1, 7)))
    assert grad_check(lambda ts: tsum(cosine_sq_rows(ts[0], ts[1])), [u, v]) < 1e-6


def test_cosine_sq_rows_matches_per_row_scalar():
    r = rng(6)
    u = r.normal(size=(5, 4))
    v = r.normal(size=(5, 4))
    batched = cosine_sq_rows(Tensor(u), Tensor(v)).values
    single = [one_row_cos2(u[i], v[i]) for i in range(5)]
    np.testing.assert_allclose(batched, single, rtol=0, atol=1e-15)


def test_cosine_sq_rows_rejects_bad_operands():
    with pytest.raises(ShapeError):
        cosine_sq_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
)
@settings(max_examples=200)
def test_cosine_sq_in_unit_interval(u, v):
    n = min(len(u), len(v))
    assert 0.0 <= one_row_cos2(u[:n], v[:n]) <= 1.0


# --- softmax -----------------------------------------------------------------


def test_softmax_uniform_row():
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0]])).values
    np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)


def test_softmax_large_magnitude_no_overflow():
    out = softmax_rows(Tensor([[1000.0, 0.0]])).values
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_softmax_vs_extended_precision_oracle():
    import mpmath

    row = rng(7).normal(scale=3.0, size=8)
    with mpmath.workdps(50):
        expected = [mpmath.exp(x) for x in row]
        total = sum(expected, mpmath.mpf(0))
        expected = np.array([float(e / total) for e in expected])
    got = softmax_rows(Tensor(row[None, :])).values[0]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
@settings(max_examples=200)
def test_softmax_rows_sum_to_one(row):
    out = softmax_rows(Tensor([row])).values
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_gradcheck():
    x = Tensor(rng(8).normal(size=(3, 5)))
    w = rng(9).normal(size=(3, 5))
    f = lambda ts: tsum(mul(softmax_rows(ts[0]), Tensor(w)))
    assert grad_check(f, [x]) < 1e-6


@pytest.mark.parametrize("storage", ["contiguous", "transposed"])
def test_softmax_rows_matches_the_out_of_place_expressions_bytes(storage):
    r = rng(62)
    x, g = r.normal(scale=4.0, size=(2, 3, 7)), r.normal(size=(2, 3, 7))
    masked = x.copy()  # -1e9 on some keys as the encoder masks them, and on every key of a row
    masked[..., 4:] = masked[1, 2] = -1e9
    for x, g in ((x, g), (masked, g), (x[..., :1], g[..., :1])):  # the last: one-element rows
        if storage == "transposed":  # equal values, stored transposed in the last two axes
            x = np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        want = [probs, probs * (g - (g * probs).sum(axis=-1, keepdims=True))]
        out = softmax_rows(Tensor(x, requires_grad=True))
        got = [out.values] + [pg for _, pg in out._backward(g)]
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


# --- adapter -------------------------------------------------------------------


def adapter_inputs(seed=44):
    """x [2, 3, 5], w_down [5, 2] and w_up [2, 5], and an output weighting, all nonzero."""
    r = rng(seed)
    return [r.normal(size=s) for s in ((2, 3, 5), (5, 2), (2, 5), (2, 3, 5))]


@pytest.mark.parametrize("residual", [True, False])
def test_adapter_gradcheck_every_input_subset(residual):
    *arrays, w = adapter_inputs()
    for mask in range(1, 8):  # each non-empty subset of {x, w_down, w_up}
        ts = [Tensor(a.copy()) for a in arrays]
        picked = [ts[i] for i in range(3) if mask >> i & 1]
        f = lambda _: tsum(mul(adapter(*ts, residual), Tensor(w)))
        assert grad_check(f, picked) < 1e-6, mask
        assert all(t.grad is None for t in ts if t not in picked)


@pytest.mark.parametrize("storage", ["contiguous", "transposed"])
@pytest.mark.parametrize("residual", [True, False])
def test_adapter_matches_the_chain_it_fuses_bytes(residual, storage):
    *arrays, w = adapter_inputs(45)
    if storage == "transposed":  # equal values, stored transposed in the last two axes
        arrays[0] = np.swapaxes(np.swapaxes(arrays[0], -1, -2).copy(), -1, -2)

    def chain(x, w_down, w_up, residual):
        core = matmul(relu(matmul(x, w_down)), w_up)
        return add(core, x) if residual else core

    def grads(ts):  # None for an input that requires no gradient
        return [t.grad.tobytes() if t.requires_grad else t.grad for t in ts]

    for mask in range(1, 8):  # each non-empty subset of {x, w_down, w_up} requires a gradient
        got, want = ([Tensor(a.copy(), requires_grad=bool(mask >> i & 1))
                      for i, a in enumerate(arrays)] for _ in range(2))
        out, ref = adapter(*got, residual), chain(*want, residual)
        assert out.values.tobytes() == ref.values.tobytes()
        tsum(mul(out, Tensor(w))).backward()
        tsum(mul(ref, Tensor(w))).backward()
        assert grads(got) == grads(want), mask


def test_adapter_refuses_mismatched_shapes():
    x = Tensor(np.zeros((2, 3, 5)))
    for w_down, w_up in (((5, 2), (2, 4)), ((4, 2), (2, 5)), ((5, 2), (3, 5)), ((5,), (2, 5))):
        with pytest.raises(ShapeError, match="adapter"):
            adapter(x, Tensor(np.zeros(w_down)), Tensor(np.zeros(w_up)))
    for x in (Tensor(np.zeros(5)), Tensor(0.0)):
        with pytest.raises(ShapeError, match="adapter"):
            adapter(x, Tensor(np.zeros((5, 2))), Tensor(np.zeros((2, 5))))


# --- layer_norm ----------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    x, y = Tensor(np.full((1, 4), 1.25)), Tensor(np.full((1, 4), 2.0))  # the sum is constant
    out = layer_norm(x, y, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-12)


def test_layer_norm_two_point_row():
    out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.zeros((1, 2))), Tensor(np.ones(2)),
                     Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_standardizes_within_1e10():
    r = rng(10)
    x, y = (Tensor(r.normal(loc=2.0, scale=1.5, size=(6, 16))) for _ in range(2))
    out = layer_norm(x, y, Tensor(np.ones(16)), Tensor(np.zeros(16))).values
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-10)


def test_layer_norm_refuses_affine_params_of_another_width():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(ShapeError, match="affine params must be"):
        layer_norm(x, x, Tensor(np.ones(4)), Tensor(np.zeros(3)))


def test_layer_norm_refuses_residual_operands_of_another_shape():
    # a broadcast residual would need its gradient summed back; none is taken
    with pytest.raises(ShapeError, match="residual operands differ"):
        layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.zeros(4)), Tensor(np.ones(4)),
                   Tensor(np.zeros(4)))


def test_layer_norm_gradcheck():
    r = rng(11)
    x, y = Tensor(r.normal(size=(4, 6))), Tensor(r.normal(size=(4, 6)))
    gain = Tensor(r.normal(size=6))
    bias = Tensor(r.normal(size=6))
    w = rng(12).normal(size=(4, 6))
    f = lambda ts: tsum(mul(layer_norm(*ts), Tensor(w)))
    assert grad_check(f, [x, y, gain, bias]) < 1e-5


def test_layer_norm_gradcheck_every_input_subset():
    r = rng(13)
    values = [r.normal(size=(2, 3, 4)), r.normal(size=(2, 3, 4)), r.normal(size=4),
              r.normal(size=4)]
    w = Tensor(rng(14).normal(size=(2, 3, 4)))
    for mask in range(1, 16):  # each non-empty subset of {x, y, gain, bias}
        ts = [Tensor(v.copy()) for v in values]
        picked = [ts[i] for i in range(4) if mask >> i & 1]
        f = lambda _: tsum(mul(layer_norm(*ts), w))
        assert grad_check(f, picked) < 1e-5, mask
        assert all(t.grad is None for t in ts if t not in picked)


def test_layer_norm_matches_add_then_norm_bytes():
    # the composition layer_norm replaced: add, then a norm of the sum, each
    # op's arithmetic in plain numpy; add hands the sum's gradient to x and y
    r = rng(15)
    x, y, gain, bias, g = (r.normal(size=s) for s in [(2, 3, 4)] * 2 + [(4,)] * 2 + [(2, 3, 4)])
    s = x + y
    xc = s - s.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    dxhat = g * gain
    gs = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    want = [xhat * gain + bias, gs, gs, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]
    ts = [Tensor(v, requires_grad=True) for v in (x, y, gain, bias)]
    out = layer_norm(*ts)
    got = [out.values] + [pg for _, pg in out._backward(g)]
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


# --- linear --------------------------------------------------------------------


def test_linear_gradcheck_every_input_subset():
    r = rng(16)
    values = [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)), r.normal(size=5)]
    w = Tensor(rng(17).normal(size=(2, 3, 5)))
    for mask in range(1, 8):  # each non-empty subset of {x, w, b}
        ts = [Tensor(v.copy()) for v in values]
        picked = [ts[i] for i in range(3) if mask >> i & 1]
        f = lambda _: tsum(mul(linear(*ts), w))
        assert grad_check(f, picked) < 1e-6, mask
        assert all(t.grad is None for t in ts if t not in picked)


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
@pytest.mark.parametrize("storage", ["contiguous", "transposed"])
def test_linear_matches_matmul_then_add_bytes(x_shape, storage):
    r = rng(18)
    x, w, b = r.normal(size=x_shape), r.normal(size=(4, 5)), r.normal(size=5)
    if storage == "transposed":  # a weight stored transposed, as the tied MLM head's is
        w = np.swapaxes(np.swapaxes(w, 0, 1).copy(), 0, 1)
    g = r.normal(size=x_shape[:-1] + (5,))
    out = linear(*(Tensor(v, requires_grad=True) for v in (x, w, b)))
    got = [out.values] + [pg for _, pg in out._backward(g)]
    ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    composed = add(matmul(ts[0], ts[1]), ts[2])
    composed.backward(g)
    want = [composed.values] + [t.grad for t in ts]
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_linear_refuses_mismatched_operands():
    x = Tensor(np.zeros((2, 4)))
    for w, b in (((4, 5), (4,)), ((3, 5), (5,)), ((4, 5), (1, 5)), ((4, 5, 1), (5,))):
        with pytest.raises(ShapeError, match="linear needs"):
            linear(x, Tensor(np.zeros(w)), Tensor(np.zeros(b)))
    with pytest.raises(ShapeError, match="linear needs"):
        linear(Tensor(np.zeros(4)), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


# --- row sets ----------------------------------------------------------------------

READ = np.array([1, 4, 5, 10])  # flat rows of a [3, 4] lead
ROWS = (READ, (3, 4))


def test_row_ops_gradcheck():
    r = rng(70)
    w = Tensor(r.normal(size=(3, 4, 5)))
    v = Tensor(r.normal(size=(4, 5)))
    cases = (
        (lambda ts: tsum(mul(take_rows(ts[0], READ), v)), (3, 4, 5)),
        (lambda ts: tsum(mul(scatter_rows(ts[0], READ, (3, 4)), w)), (4, 5)),
        # a fresh generator on every call draws the same mask each time
        (lambda ts: tsum(mul(dropout(ts[0], 0.3, np.random.default_rng(7), ROWS), v)), (4, 5)),
    )
    for f, shape in cases:
        x = Tensor(r.normal(size=shape))
        assert grad_check(f, [x]) < 1e-6
    values = [r.normal(size=(4, 6)), r.normal(size=(6, 5)), r.normal(size=5)]
    for mask in range(1, 8):  # each non-empty subset of {x, w, b}
        ts = [Tensor(a.copy()) for a in values]
        picked = [ts[i] for i in range(3) if mask >> i & 1]
        f = lambda _: tsum(mul(linear(*ts, rows=ROWS), v))
        assert grad_check(f, picked) < 1e-6, mask
        assert all(t.grad is None for t in ts if t not in picked)


def test_take_and_scatter_rows_are_adjoint():
    r = rng(71)
    full, part = r.normal(size=(3, 4, 2)), r.normal(size=(4, 2))
    taken = take_rows(Tensor(full), READ).values
    placed = scatter_rows(Tensor(part), READ, (3, 4)).values
    assert taken.tobytes() == full.reshape(12, 2)[READ].tobytes()
    assert placed.shape == (3, 4, 2) and np.count_nonzero(np.delete(placed.reshape(12, 2),
                                                                    READ, axis=0)) == 0
    assert (taken * part).sum() == pytest.approx((full * placed).sum())
    g = np.array(-0.0) * np.ones((4, 2))  # the backward keeps each bit, a zero's sign too
    back = take_rows(Tensor(full, requires_grad=True), READ)._backward(g)[0][1]
    assert np.signbit(back.reshape(12, 2)[READ]).all()


@pytest.mark.parametrize("m, n_read", [(12, 3), (160, 17), (448, 49), (1600, 400)])
def test_linear_on_rows_is_the_full_linear_bytes(m, n_read):
    # the full node on an input whose unread rows are zero, and on a gradient
    # that is zero there: same values on the read rows and same gradients (with
    # OpenBLAS 0.3.31, x^T @ dC over 400 of 1600 rows rounds apart from the full one)
    r = rng(72 + m)
    read = np.sort(r.choice(m, size=n_read, replace=False))
    lead = (m // 4, 4)
    for k, n in ((32, 32), (32, 64), (64, 32)):
        x, w, b = r.normal(size=(read.size, k)), r.normal(size=(k, n)), r.normal(size=n)
        g = r.normal(size=(read.size, n))
        x_full, g_full = np.zeros(lead + (k,)), np.zeros(lead + (n,))
        x_full.reshape(m, k)[read], g_full.reshape(m, n)[read] = x, g
        part = linear(*(Tensor(a, requires_grad=True) for a in (x, w, b)), rows=(read, lead))
        full = linear(*(Tensor(a, requires_grad=True) for a in (x_full, w, b)))
        (gx, gw, gb), (fx, fw, fb) = ([pg for _, pg in node._backward(grad)]
                                      for node, grad in ((part, g), (full, g_full)))
        assert part.values.tobytes() == full.values.reshape(m, n)[read].tobytes()
        assert gx.tobytes() == fx.reshape(m, k)[read].tobytes()
        assert (gw.tobytes(), gb.tobytes()) == (fw.tobytes(), fb.tobytes())


def test_dropout_on_rows_draws_the_full_mask():
    x = rng(73).normal(size=(3, 4, 5))
    full_rng, rows_rng = np.random.default_rng(9), np.random.default_rng(9)
    full = dropout(Tensor(x), 0.3, full_rng).values
    part = dropout(Tensor(x.reshape(12, 5)[READ]), 0.3, rows_rng, ROWS).values
    assert part.tobytes() == full.reshape(12, 5)[READ].tobytes()
    assert rows_rng.random() == full_rng.random()  # the stream moved alike


# --- dropout -------------------------------------------------------------------


def test_dropout_gradcheck_with_a_fixed_mask():
    x = Tensor(rng(40).normal(size=(3, 4)))
    w = Tensor(rng(41).normal(size=(3, 4)))
    # a fresh generator on every call draws the same mask each time
    f = lambda ts: tsum(mul(dropout(ts[0], 0.3, np.random.default_rng(7)), w))
    assert grad_check(f, [x]) < 1e-6
    assert 0 < np.count_nonzero(x.grad) < x.size  # some entries dropped, some kept


def test_dropout_at_rate_zero_returns_its_input():
    x = Tensor(np.ones(3), requires_grad=True)
    assert dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_scales_kept_entries_by_exactly_the_inverse_keep_rate():
    p = 0.25
    x = rng(42).normal(size=(50, 8))
    out = dropout(Tensor(x), p, np.random.default_rng(3)).values
    kept = out != 0.0
    assert 0 < kept.sum() < x.size
    assert out[kept].tobytes() == (x[kept] * (1.0 / (1.0 - p))).tobytes()


# --- cross_entropy ------------------------------------------------------------


def test_cross_entropy_confident_correct_near_zero():
    logits = Tensor([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
    loss = cross_entropy(logits, [0, 1]).item()
    assert loss < 1e-10


def test_cross_entropy_uniform_is_log_c():
    loss = cross_entropy(Tensor(np.zeros((4, 3))), [0, 1, 2, 0]).item()
    assert abs(loss - math.log(3)) < 1e-12


def test_cross_entropy_vs_extended_precision_oracle():
    import mpmath

    r = rng(13)
    logits = r.normal(scale=2.0, size=(6, 5))
    labels = np.array([0, 3, 1, 2, 4, 0])
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for row, y in zip(logits, labels):
            denom = sum(mpmath.exp(v) for v in row)
            total += -mpmath.log(mpmath.exp(row[y]) / denom)
        expected = float(total / len(labels))
    got = cross_entropy(Tensor(logits), labels).item()
    assert abs(got - expected) / abs(expected) < 1e-10


def test_cross_entropy_zero_rows_raises():
    with pytest.raises(EmptyLossError):
        cross_entropy(Tensor(np.zeros((0, 3))), [])
    with pytest.raises(ShapeError, match="for 3 labels"):  # one label per row
        cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2])


def test_cross_entropy_label_out_of_range_raises():
    # e.g. a 6-tag dataset on a 4-class tag head; the ignore label is out of
    # range too, since ``labelled_rows`` drops those rows before the head
    # the error names the negative label, else the largest
    for labels, bad in (([0, 5], 5), ([-2, 1], -2), ([-1, 1], -1), ([4, 5], 5), ([-1, 5], -1)):
        with pytest.raises(VocabError, match=rf"labels must lie in \[0, 3\), got {bad}"):
            cross_entropy(Tensor(np.zeros((2, 3))), labels)


def test_cross_entropy_refuses_labels_that_are_not_integers():
    # an int64 cast would score 0.9 as class 0 and 2.5 as class 2
    for labels in (np.array([0.9, 2.5]), np.array([True, False])):
        with pytest.raises(ContractError, match="labels must be integers"):
            cross_entropy(Tensor(np.zeros((2, 3))), labels)


def test_cross_entropy_gradcheck():
    logits = Tensor(rng(15).normal(size=(5, 4)))
    labels = [0, 3, 2, 1, 2]
    f = lambda ts: cross_entropy(ts[0], labels)
    assert grad_check(f, [logits]) < 1e-7


# --- plumbing ops -------------------------------------------------------------


def test_relu_embedding_reshape_transpose_gradcheck():
    r = rng(16)
    table = Tensor(r.normal(size=(9, 4)))
    ids = np.array([[1, 4], [8, 1]])  # id 1 twice: its gradients add
    w = rng(17).normal(size=(2, 2, 4))

    def f(ts):
        emb = embedding_lookup(ts[0], ids)
        out = relu(emb)
        out = transpose(out, (1, 0, 2))
        out = reshape(out, (2, 2, 4))
        return tsum(mul(out, Tensor(w)))

    assert grad_check(f, [table]) < 1e-6


def test_embedding_lookup_backward_matches_add_at():
    # the bincount backward sums each row in input order, as np.add.at does
    r = rng(19)
    table = Tensor(r.normal(size=(7, 5)), requires_grad=True)
    ids = r.integers(0, 7, size=(6, 9))
    g = r.normal(scale=1e3, size=(6, 9, 5)) * r.normal(size=(6, 9, 1)) ** 4
    embedding_lookup(table, ids).backward(g)
    expected = np.zeros((7, 5))
    np.add.at(expected, ids, g)
    assert table.grad.tobytes() == expected.tobytes()


def test_embedding_lookup_refuses_ids_outside_the_table_or_not_integers():
    # numpy would read -1 as the last row, truncate 1.7 to row 1 and raise its
    # own IndexError for 3
    table = Tensor(np.arange(6.0).reshape(3, 2))
    for ids, error, match in (([-1], VocabError, r"ids must lie in \[0, 3\), got -1"),
                              ([3], VocabError, r"ids must lie in \[0, 3\), got 3"),
                              ([1.7], ContractError, "ids must be integers"),
                              ([True], ContractError, "ids must be integers")):
        with pytest.raises(error, match=match):
            embedding_lookup(table, np.array(ids))
    assert embedding_lookup(table, np.array([], dtype=np.int64)).shape == (0, 2)


def test_tanh_select_token_mean_gradcheck():
    r = rng(18)
    x = Tensor(r.normal(size=(2, 3, 4)))

    def f(ts):
        return tsum(tanh(select_token(ts[0], 0)))

    assert grad_check(f, [x]) < 1e-7


def test_swap_last_matches_numpy():
    x = rng(19).normal(size=(2, 3, 4))
    np.testing.assert_array_equal(swap_last(Tensor(x)).values, np.swapaxes(x, -1, -2))


def test_broadcast_operand_gradcheck():
    # a [1, 3, 1] operand's gradient sums over the axes it was broadcast along
    r = rng(20)
    a, b = Tensor(r.normal(size=(2, 3, 4))), Tensor(r.normal(size=(1, 3, 1)))
    w = Tensor(r.normal(size=(2, 3, 4)))
    for op in (add, mul):
        assert grad_check(lambda ts: tsum(mul(op(ts[0], ts[1]), w)), [a, b]) < 1e-7


def test_gradients_accumulate_across_uses():
    x = Tensor([2.0], requires_grad=True)
    y = add(mul(x, 3.0), mul(x, x))  # 3x + x^2, dy/dx = 3 + 2x = 7
    tsum(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])
    # second backward adds on top, no implicit zeroing
    tsum(add(mul(x, 3.0), mul(x, x))).backward()
    np.testing.assert_allclose(x.grad, [14.0])


# --- frozen operands --------------------------------------------------------


# each multi-operand op, with operands shaped as the encoder uses them: an
# activation times a weight, a bias or a scalar broadcast over an activation,
# a norm's gain and bias, a detached slot input against the slot output, and
# attention's q, k and v
FROZEN_CASES = {
    "matmul": (matmul, [(2, 3, 4), (4, 5)]),
    "matmul_4d": (matmul, [(2, 2, 3, 4), (4, 5)]),
    "attention": (lambda q, k, v: attention(q, k, v, KEY_BIAS, 2), [(2, 3, 4)] * 3),
    "add": (add, [(2, 3, 4), (4,)]),
    "mul": (mul, [(2, 3, 4), ()]),
    "layer_norm": (layer_norm, [(3, 4), (3, 4), (4,), (4,)]),
    "linear": (linear, [(2, 3, 4), (4, 5), (5,)]),
    "linear_rows": (lambda x, w, b: linear(x, w, b, ROWS), [(4, 4), (4, 5), (5,)]),
    "cosine_sq_rows": (cosine_sq_rows, [(3, 4), (3, 4)]),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_frozen_operand_gets_no_gradient(name):
    op, shapes = FROZEN_CASES[name]
    r = rng(31)
    values = [r.normal(size=s) for s in shapes]
    for k in range(len(values)):
        grads = []
        for others_require in (True, False):
            ts = [Tensor(v.copy(), requires_grad=others_require or i == k)
                  for i, v in enumerate(values)]
            out = op(*ts)
            g = rng(32).normal(size=out.shape)
            # the rule computes a gradient only for the operands that require one
            assert [id(t) for t, _ in out._backward(g)] == [
                id(t) for t in ts if t.requires_grad]
            out.backward(g)
            grads.append(ts[k].grad.tobytes())
            if not others_require:
                assert all(t.grad is None for i, t in enumerate(ts) if i != k)
        assert grads[0] == grads[1], (name, k)


def test_grad_check_with_a_frozen_operand():
    r = rng(33)
    w = Tensor(r.normal(size=(4, 2)))  # frozen: none of these is a grad_check input
    u = Tensor(r.normal(size=(3, 4)))
    gain, bias = Tensor(r.normal(size=4)), Tensor(r.normal(size=4))
    c = Tensor(r.normal(size=(3, 4)))
    b2 = Tensor(r.normal(size=2))
    cases = (
        (lambda ts: tsum(matmul(ts[0], w)), r.normal(size=(3, 4))),
        (lambda ts: tsum(matmul(u, ts[0])), r.normal(size=(4, 2))),
        (lambda ts: tsum(mul(layer_norm(ts[0], c, gain, bias), c)), r.normal(size=(3, 4))),
        (lambda ts: tsum(mul(layer_norm(u, ts[0], gain, bias), c)), r.normal(size=(3, 4))),
        (lambda ts: tsum(mul(layer_norm(u, c, ts[0], bias), c)), r.normal(size=4)),
        (lambda ts: tsum(linear(ts[0], w, b2)), r.normal(size=(3, 4))),
        (lambda ts: tsum(linear(u, ts[0], b2)), r.normal(size=(4, 2))),
        (lambda ts: tsum(linear(u, w, ts[0])), r.normal(size=2)),
        (lambda ts: tsum(cosine_sq_rows(u, ts[0])), r.normal(size=(3, 4))),
    )
    for f, x in cases:
        assert grad_check(f, [Tensor(x)]) < 1e-6
    assert all(t.grad is None for t in (w, u, gain, bias, c, b2))


def test_forward_values_stay_finite():
    big = Tensor(np.full((3, 3), 1e3))
    for out in (
        softmax_rows(big),
        layer_norm(big, big, Tensor(np.ones(3)), Tensor(np.zeros(3))),
        relu(big),
        tanh(big),
    ):
        assert np.all(np.isfinite(out.values))


# --- the in-place rule -----------------------------------------------------------

# each op whose arithmetic runs in buffers, and its constant (non-tensor) inputs
IN_PLACE_CASES = {
    "linear": (linear, [(2, 3, 4), (4, 5), (5,)], ()),
    "linear_rows": (lambda x, w, b: linear(x, w, b, ROWS), [(4, 4), (4, 5), (5,)], ()),
    "take_rows": (lambda x: take_rows(x, READ), [(3, 4, 2)], ()),
    "scatter_rows": (lambda x: scatter_rows(x, READ, (3, 4)), [(4, 2)], ()),
    "adapter": (adapter, [(2, 3, 4), (4, 2), (2, 4)], ()),
    "attention": (lambda q, k, v, bias: attention(q, k, v, bias, 2), [(2, 3, 4)] * 3,
                  (KEY_BIAS,)),
    "layer_norm": (layer_norm, [(2, 3, 4), (2, 3, 4), (4,), (4,)], ()),
    "softmax_rows": (softmax_rows, [(2, 3, 5)], ()),
    "dropout": (lambda x: dropout(x, 0.3, np.random.default_rng(1)), [(3, 4)], ()),
    "dropout_rows": (lambda x: dropout(x, 0.3, np.random.default_rng(1), ROWS), [(4, 3)], ()),
    "cross_entropy": (cross_entropy, [(4, 5)], (np.array([0, 4, 2, 2]),)),
}


@pytest.mark.parametrize("name", sorted(IN_PLACE_CASES))
def test_op_writes_into_no_input_and_returns_no_view_of_one(name):
    # an op writes in place only into arrays it allocated in the same call
    op, shapes, constants = IN_PLACE_CASES[name]
    r = rng(63)
    arrays = [r.normal(size=s) for s in shapes] + [c.copy() for c in constants]
    before = [a.tobytes() for a in arrays]
    ts = [Tensor(a, requires_grad=True) for a in arrays[:len(shapes)]]
    out = op(*ts, *arrays[len(shapes):])
    g = np.asarray(r.normal(size=out.shape))
    inputs = arrays + [g]
    before.append(g.tobytes())
    returned = [out.values] + [pg for _, pg in out._backward(g)]
    again = [out.values] + [pg for _, pg in out._backward(g)]
    assert len(returned) == len(ts) + 1
    assert [a.tobytes() for a in inputs] == before
    # a second backward reads the same saved arrays, so it returns the same bytes
    assert [v.tobytes() for v in again] == [v.tobytes() for v in returned]
    assert not any(np.shares_memory(v, a) for v in returned for a in inputs)


def bytes_of(a):
    return type(a), np.asarray(a).dtype, np.shape(a), np.asarray(a).tobytes()


@pytest.mark.parametrize("ndim", [0, 1, 2, 3, 4])
def test_row_mean_and_direct_reduces_are_the_methods_bytes(ndim):
    # the ops call these in place of ``ndarray.mean`` / ``.sum`` / ``.max`` / ``.min`` /
    # ``.all``; a row length past 8 and past 128 changes how a pairwise sum is split
    rng = np.random.default_rng(ndim)
    for n in range(1, 131) if ndim else [None]:
        shape = () if n is None else (3, 2, 4)[: ndim - 1] + (n,)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        if ndim:
            x[..., :: max(1, n // 3)] *= -0.0  # a signed zero in each row
        axes = [None] if not ndim else [None, -1, 0, tuple(range(ndim - 1))]
        for axis in axes:
            for keepdims in (False, True):
                assert (bytes_of(np.add.reduce(x, axis=axis, keepdims=keepdims))
                        == bytes_of(x.sum(axis=axis, keepdims=keepdims)))
                assert (bytes_of(np.maximum.reduce(x, axis=axis, keepdims=keepdims))
                        == bytes_of(x.max(axis=axis, keepdims=keepdims)))
                assert (bytes_of(np.minimum.reduce(x, axis=axis, keepdims=keepdims))
                        == bytes_of(x.min(axis=axis, keepdims=keepdims)))
                assert (bytes_of(np.logical_and.reduce(x > 0, axis=axis, keepdims=keepdims))
                        == bytes_of((x > 0).all(axis=axis, keepdims=keepdims)))
        if ndim:
            assert bytes_of(_row_mean(x)) == bytes_of(x.mean(axis=-1, keepdims=True))
