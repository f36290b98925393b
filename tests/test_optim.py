import numpy as np
import pytest

from adapterlab.autodiff import Tensor
from adapterlab.errors import ContractError
from adapterlab.optim import Adam, ParamSet, clip_grad_norm


def make_params():
    ps = ParamSet()
    ps.add("a", Tensor(np.ones((2, 2))))
    ps.add("b", Tensor(np.full(3, 5.0)))
    return ps


def test_first_step_with_unit_gradient_is_minus_lr():
    # bias correction makes m_hat = v_hat = 1 on step one, so the update is
    # -lr / (1 + eps) per element
    ps = make_params()
    ps.set_trainable(ps.names())
    for _, t in ps.items():
        t.grad = np.ones_like(t.values)
    opt = Adam(ps, ps.names(), lr=0.1)
    opt.step()
    np.testing.assert_allclose(ps["a"].values, 1.0 - 0.1, atol=1e-8)
    np.testing.assert_allclose(ps["b"].values, 5.0 - 0.1, atol=1e-8)


def test_frozen_parameter_bit_identical():
    # a step moves exactly the optimizer's names; a weight outside them keeps
    # its bytes and its gradient, even one that could train
    ps = make_params()
    ps.set_trainable(ps.names())
    before = ps["a"].values.tobytes()
    ps["b"].grad = np.ones(3)
    ps["a"].grad = np.full((2, 2), 123.0)  # present but must be ignored
    opt = Adam(ps, ["b"], lr=0.5)
    opt.step()
    assert ps["a"].values.tobytes() == before
    assert ps["b"].values[0] != 5.0
    assert ps["a"].grad[0, 0] == 123.0 and ps["b"].grad is None


def test_missing_gradient_on_unfrozen_is_contract_error():
    ps = make_params()
    ps.set_trainable(ps.names())
    ps["a"].grad = np.ones((2, 2))
    opt = Adam(ps, ps.names(), lr=1e-3)
    with pytest.raises(ContractError, match="b"):
        opt.step()
    ps.set_trainable(["a"])  # a scope naming a frozen weight is refused, not skipped
    with pytest.raises(ContractError, match="'b' has no gradient"):
        opt.step()


def test_gradients_cleared_after_step():
    ps = make_params()
    for _, t in ps.items():
        t.grad = np.ones_like(t.values)
    Adam(ps, ps.names(), lr=1e-3).step()
    assert ps["a"].grad is None and ps["b"].grad is None


def test_three_step_trajectory_matches_scalar_oracle():
    # hand-rolled Adam on f(x) = x^2 / 2 (gradient = x), lr 0.05
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    x = 1.7
    m = v = 0.0
    expect = []
    for t in range(1, 4):
        g = x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
        expect.append(x)

    ps = ParamSet()
    ps.add("x", Tensor(np.array(1.7)))
    ps.set_trainable(["x"])
    opt = Adam(ps, ["x"], lr=lr)
    got = []
    for _ in range(3):
        ps["x"].grad = ps["x"].values.copy()
        opt.step()
        got.append(float(ps["x"].values))
    np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)


def test_step_is_byte_equal_to_the_out_of_place_expressions():
    # the step reuses two buffers per weight; a 0-d weight, a vector and a matrix
    # must each move to the bytes of Adam's out-of-place expressions
    rng = np.random.default_rng(0)
    shapes = {"s": (), "v": (5,), "w": (3, 4)}
    ps = ParamSet()
    for name, shape in shapes.items():
        ps.add(name, Tensor(rng.normal(size=shape)))
    ps.set_trainable(ps.names())
    opt = Adam(ps, ps.names(), lr=0.01)
    ref = {n: ps[n].values.copy() for n in shapes}
    m = {n: np.zeros(shape) for n, shape in shapes.items()}
    v = {n: np.zeros(shape) for n, shape in shapes.items()}
    for t in range(1, 5):
        for name, shape in shapes.items():
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
            ps[name].grad = np.array(g)
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
            m_hat = m[name] / (1.0 - 0.9 ** t)
            v_hat = v[name] / (1.0 - 0.999 ** t)
            ref[name] = ref[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        opt.step()
        for name in shapes:
            assert ps[name].values.shape == shapes[name]
            assert ps[name].values.tobytes() == np.asarray(ref[name]).tobytes(), (t, name)
            assert opt.m[name].tobytes() == np.asarray(m[name]).tobytes()
            assert opt.v[name].tobytes() == np.asarray(v[name]).tobytes()


def test_two_optimizers_same_params_independent_state():
    ps = make_params()
    opt_a = Adam(ps, ps.names(), lr=0.1)
    opt_b = Adam(ps, ps.names(), lr=0.01)
    for _, t in ps.items():
        t.grad = np.ones_like(t.values)
    a_before = opt_a.state_checksum()
    opt_b.step()
    assert opt_a.state_checksum() == a_before
    assert opt_b.t == 1 and opt_a.t == 0


def test_clip_grad_norm_bounds_and_preserves_direction():
    ps = make_params()
    r = np.random.default_rng(0)
    pre = {}
    for name, t in ps.items():
        t.grad = r.normal(size=t.values.shape) * 10.0
        pre[name] = t.grad.copy()
    norm = clip_grad_norm(ps, ps.names(), max_norm=1.0)
    post_sq = sum(float((ps[n].grad ** 2).sum()) for n in ps.names())
    assert post_sq**0.5 <= 1.0 + 1e-12
    # same positive multiple everywhere
    for name in ps.names():
        ratio = ps[name].grad / pre[name]
        np.testing.assert_allclose(ratio, 1.0 / norm, rtol=1e-12)


def test_clip_noop_when_under_threshold():
    ps = make_params()
    ps["a"].grad = np.full((2, 2), 0.01)
    ps["b"].grad = np.zeros(3)
    before = ps["a"].grad.copy()
    clip_grad_norm(ps, ps.names(), max_norm=1.0)
    np.testing.assert_array_equal(ps["a"].grad, before)


def test_duplicate_or_unknown_parameter_names_are_contract_errors():
    ps = make_params()
    with pytest.raises(ContractError, match="'a' already declared"):
        ps.add("a", Tensor(np.zeros(2)))
    with pytest.raises(ContractError, match="unknown parameters: \\['c'\\]"):
        ps.set_trainable(["b", "c"])
    assert ps["a"].values.shape == (2, 2)


def test_add_declares_a_weight_frozen():
    ps = ParamSet()
    ps.add("w", Tensor(np.ones(2), requires_grad=True))
    assert not ps["w"].requires_grad
    ps.set_trainable(["w"])
    assert ps["w"].requires_grad


def test_set_trainable_and_checksum():
    ps = make_params()
    ps.set_trainable(["b"])
    assert [n for n in ps.names() if ps[n].requires_grad] == ["b"]
    c1 = ps.checksum()
    ps["b"].values += 1.0
    assert ps.checksum() != c1
    assert ps.checksum(names=["a"]) == ps.checksum(names=["a"])
