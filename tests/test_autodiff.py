import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab import Tensor, grad_check
from adapterlab.autodiff import (
    add,
    cosine_sq,
    cosine_sq_rows,
    cross_entropy,
    embedding_lookup,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    select_token,
    softmax_rows,
    swap_last,
    tanh,
    tmean,
    transpose,
    tsum,
)
from adapterlab.errors import ContractError, EmptyLossError, ShapeError


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


def test_matmul_gradients_vs_finite_differences():
    r = rng(1)
    a = Tensor(r.normal(size=(3, 4)))
    b = Tensor(r.normal(size=(4, 2)))

    def f(ts):
        return tsum(mul(matmul(ts[0], ts[1]), Tensor(r2_weights)))

    r2_weights = rng(2).normal(size=(3, 2))  # non-trivial seed to probe all entries
    assert grad_check(f, [a, b], h=1e-5) < 1e-6


def test_matmul_batched_gradcheck():
    r = rng(3)
    a = Tensor(r.normal(size=(2, 3, 4)))
    b = Tensor(r.normal(size=(4, 5)))
    w = rng(4).normal(size=(2, 3, 5))

    def f(ts):
        return tsum(mul(matmul(ts[0], ts[1]), Tensor(w)))

    assert grad_check(f, [a, b], h=1e-5) < 1e-6


# --- cosine_sq ---------------------------------------------------------------


def test_cosine_sq_orthogonal():
    assert cosine_sq(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0


def test_cosine_sq_parallel():
    val = cosine_sq(Tensor([2.0, 2.0]), Tensor([1.0, 1.0])).item()
    assert abs(val - 1.0) < 1e-10


def test_cosine_sq_half():
    val = cosine_sq(Tensor([1.0, 0.0]), Tensor([1.0, 1.0])).item()
    assert abs(val - 0.5) < 1e-10


def test_cosine_sq_gradcheck():
    r = rng(5)
    u = Tensor(r.normal(size=(7,)))
    v = Tensor(r.normal(size=(7,)))
    assert grad_check(lambda ts: cosine_sq(ts[0], ts[1]), [u, v]) < 1e-6


def test_cosine_sq_rows_matches_per_row_scalar():
    r = rng(6)
    u = r.normal(size=(5, 4))
    v = r.normal(size=(5, 4))
    batched = cosine_sq_rows(Tensor(u), Tensor(v)).values
    single = [cosine_sq(Tensor(u[i]), Tensor(v[i])).item() for i in range(5)]
    np.testing.assert_allclose(batched, single, rtol=0, atol=1e-15)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.floats(1e-12, 1e-3),
)
@settings(max_examples=200, deadline=None)
def test_cosine_sq_in_unit_interval(u, v, eps):
    n = min(len(u), len(v))
    val = cosine_sq(Tensor(u[:n]), Tensor(v[:n]), eps=eps).item()
    assert 0.0 <= val <= 1.0


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

    mpmath.mp.dps = 50
    row = rng(7).normal(scale=3.0, size=8)
    expected = [mpmath.exp(x) for x in row]
    total = sum(expected, mpmath.mpf(0))
    expected = np.array([float(e / total) for e in expected])
    got = softmax_rows(Tensor(row[None, :])).values[0]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_softmax_rows_sum_to_one(row):
    out = softmax_rows(Tensor([row])).values
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_gradcheck():
    x = Tensor(rng(8).normal(size=(3, 5)))
    w = rng(9).normal(size=(3, 5))
    f = lambda ts: tsum(mul(softmax_rows(ts[0]), Tensor(w)))
    assert grad_check(f, [x]) < 1e-6


# --- layer_norm ----------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((1, 4), 3.25))
    out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-12)


def test_layer_norm_two_point_row():
    out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_standardizes_within_1e10():
    x = Tensor(rng(10).normal(loc=2.0, scale=1.5, size=(6, 16)))
    out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).values
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-10)


def test_layer_norm_gradcheck():
    r = rng(11)
    x = Tensor(r.normal(size=(4, 6)))
    gain = Tensor(r.normal(size=6))
    bias = Tensor(r.normal(size=6))
    w = rng(12).normal(size=(4, 6))
    f = lambda ts: tsum(mul(layer_norm(ts[0], ts[1], ts[2]), Tensor(w)))
    assert grad_check(f, [x, gain, bias]) < 1e-5


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

    mpmath.mp.dps = 50
    r = rng(13)
    logits = r.normal(scale=2.0, size=(6, 5))
    labels = np.array([0, 3, -1, 2, 4, -1])
    total = mpmath.mpf(0)
    count = 0
    for row, y in zip(logits, labels):
        if y == -1:
            continue
        denom = sum(mpmath.exp(v) for v in row)
        total += -mpmath.log(mpmath.exp(row[y]) / denom)
        count += 1
    expected = float(total / count)
    got = cross_entropy(Tensor(logits), labels).item()
    assert abs(got - expected) / abs(expected) < 1e-10


def test_cross_entropy_ignored_positions_carry_no_gradient():
    logits = Tensor(rng(14).normal(size=(3, 4)), requires_grad=True)
    loss = cross_entropy(logits, [2, -1, 0])
    loss.backward()
    np.testing.assert_array_equal(logits.grad[1], 0.0)
    assert np.any(logits.grad[0] != 0.0)


def test_cross_entropy_all_ignored_raises():
    with pytest.raises(EmptyLossError):
        cross_entropy(Tensor(np.zeros((2, 3))), [-1, -1])


def test_cross_entropy_label_out_of_range_raises():
    # e.g. a 6-tag dataset on a 4-class tag head
    for labels in ([0, 5], [-2, 1]):
        with pytest.raises(ContractError, match=r"labels must lie in \[0, 3\)"):
            cross_entropy(Tensor(np.zeros((2, 3))), labels)


def test_cross_entropy_gradcheck():
    logits = Tensor(rng(15).normal(size=(5, 4)))
    labels = [0, 3, -1, 1, 2]
    f = lambda ts: cross_entropy(ts[0], labels)
    assert grad_check(f, [logits]) < 1e-7


# --- plumbing ops -------------------------------------------------------------


def test_relu_embedding_reshape_transpose_gradcheck():
    r = rng(16)
    table = Tensor(r.normal(size=(9, 4)))
    ids = np.array([[1, 4], [8, 0]])
    w = rng(17).normal(size=(2, 2, 4))

    def f(ts):
        emb = embedding_lookup(ts[0], ids)
        out = relu(emb)
        out = transpose(out, (1, 0, 2))
        out = reshape(out, (2, 2, 4))
        return tsum(mul(out, Tensor(w)))

    assert grad_check(f, [table]) < 1e-6


def test_tanh_select_token_mean_gradcheck():
    r = rng(18)
    x = Tensor(r.normal(size=(2, 3, 4)))

    def f(ts):
        return tmean(tanh(select_token(ts[0], 0)))

    assert grad_check(f, [x]) < 1e-7


def test_swap_last_matches_numpy():
    x = rng(19).normal(size=(2, 3, 4))
    np.testing.assert_array_equal(swap_last(Tensor(x)).values, np.swapaxes(x, -1, -2))


def test_gradients_accumulate_across_uses():
    x = Tensor([2.0], requires_grad=True)
    y = add(mul(x, 3.0), mul(x, x))  # 3x + x^2, dy/dx = 3 + 2x = 7
    tsum(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])
    # second backward adds on top, no implicit zeroing
    tsum(add(mul(x, 3.0), mul(x, x))).backward()
    np.testing.assert_allclose(x.grad, [14.0])


def test_forward_values_stay_finite():
    big = Tensor(np.full((3, 3), 1e3))
    for out in (
        softmax_rows(big),
        layer_norm(big, Tensor(np.ones(3)), Tensor(np.zeros(3))),
        relu(big),
        tanh(big),
    ):
        assert np.all(np.isfinite(out.values))
