import numpy as np
import pytest

from adapterlab.autodiff import Tensor, grad_check, mul, tsum
from adapterlab.errors import NumericError, ShapeError


def test_sum_of_squares_analytic_gradient():
    x = Tensor(np.array([1.0, 2.0]))
    err = grad_check(lambda ts: tsum(mul(ts[0], ts[0])), [x])
    assert err < 1e-9
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_constant_function_zero_everywhere():
    x = Tensor(np.array([3.0, -1.0]))
    err = grad_check(lambda ts: Tensor(np.asarray(7.0)), [x])
    assert err == 0.0


def test_non_finite_function_raises_with_coordinate():
    x = Tensor(np.array([1e-7]))

    def f(ts):
        # log goes nan once the perturbation pushes the value negative
        with np.errstate(invalid="ignore"):
            return Tensor(np.asarray(np.log(ts[0].values[0])))

    with pytest.raises(NumericError, match="coordinate 0"):
        grad_check(f, [x])
    x.values[0] = -1.0  # non-finite at the base point itself
    with pytest.raises(NumericError, match="base point"):
        grad_check(f, [x])


def test_perturbed_evaluations_record_no_graph():
    x = Tensor(np.array([1.0, 2.0]))
    recorded = []

    def f(ts):
        out = tsum(mul(ts[0], ts[0]))
        recorded.append(out.requires_grad)
        return out

    grad_check(f, [x])
    assert recorded == [True] + [False] * 4  # the base point, then two per coordinate
    assert not x.requires_grad  # left frozen, with its analytic gradient
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_rejects_non_scalar_function():
    x = Tensor(np.zeros(3))
    with pytest.raises(ShapeError):
        grad_check(lambda ts: mul(ts[0], 2.0), [x])


@pytest.mark.parametrize("f, error", [
    (lambda ts: mul(ts[0], 2.0), ShapeError),  # not a scalar
    (lambda ts: tsum(mul(ts[0], np.inf)), NumericError),  # non-finite at the base point
], ids=["non_scalar", "non_finite"])
def test_inputs_left_frozen_when_the_check_raises(f, error):
    x = Tensor(np.ones(3))
    with pytest.raises(error):
        grad_check(f, [x])
    assert not x.requires_grad
    assert not mul(x, 2.0).requires_grad  # so later ops on it record no graph
