import numpy as np
import pytest

from tgeom import SolverError
from tgeom.newton import MAX_HALVINGS, MAX_STEPS, newton


def test_converges_to_known_root():
    # circle of radius 2 cut by the diagonal: root (sqrt 2, sqrt 2)
    def residual(z):
        return np.array([z[0] ** 2 + z[1] ** 2 - 4.0, z[0] - z[1]])

    def jacobian(z):
        return np.array([[2.0 * z[0], 2.0 * z[1]], [1.0, -1.0]])

    z0 = np.array([1.0, 0.5])
    z, record = newton(residual, jacobian, z0, 1e-13)
    assert np.allclose(z, np.sqrt(2.0), rtol=0, atol=1e-13)
    assert record.residual_norm <= 1e-13
    assert not record.stalled
    assert 0 < record.iterations < MAX_STEPS
    assert z0.tolist() == [1.0, 0.5]  # the start is not modified


def test_overshooting_step_is_halved():
    # from 1.5 the full Newton step on arctan lands where |arctan| is larger
    z, record = newton(lambda z: np.arctan(z), lambda z: np.array([[1.0 / (1.0 + z[0] ** 2)]]),
                       [1.5], 1e-14)
    assert abs(z[0]) <= 1e-14
    assert record.backtracks > 0 and not record.stalled


def test_stall_when_no_halving_helps():
    # a Jacobian of the wrong sign points uphill at every step length
    z, record = newton(lambda z: z - 1.0, lambda z: np.array([[-1.0]]), [0.0], 1e-12)
    assert record.stalled
    assert (record.iterations, record.backtracks) == (1, MAX_HALVINGS)
    assert record.residual_norm == 1.0
    assert z.tolist() == [0.0]


def test_halving_budget_is_per_solve():
    # a Jacobian 2**30 / 1.5 times too small: each step is rejected 29
    # times, then the step of length 2**-29 maps z to -z / 3.  The first
    # step spends 29 of the solve's MAX_HALVINGS halvings and the second
    # the rest, so the solve stalls at -1/3; a budget of 40 per step would
    # shrink z threefold for many steps
    z, record = newton(lambda z: z, lambda z: np.array([[1.5 * 2.0 ** -30]]), [1.0], 1e-12)
    assert record.stalled
    assert (record.iterations, record.backtracks) == (2, MAX_HALVINGS)
    assert z[0] == pytest.approx(-1.0 / 3.0, rel=1e-12)
    assert record.residual_norm == abs(z[0])


def test_nan_residual_stalls():
    _, record = newton(lambda z: np.full(1, np.nan), lambda z: np.eye(1), [0.0], 1e-12)
    assert record.stalled and np.isnan(record.residual_norm)


def test_step_cap():
    # Newton on z^3 converges only linearly (ratio 2/3 per step)
    z, record = newton(lambda z: z ** 3, lambda z: np.array([[3.0 * z[0] ** 2]]), [1.0], 0.0)
    assert record.iterations == MAX_STEPS and not record.stalled
    assert z[0] == pytest.approx((2.0 / 3.0) ** MAX_STEPS, rel=1e-9)


def test_singular_jacobian_raises_with_detail():
    with pytest.raises(SolverError) as info:
        newton(lambda z: z - 1.0, lambda z: np.zeros((2, 2)), [0.0, 0.0], 1e-12)
    assert info.value.detail == {"residual_norm": float(np.sqrt(2.0)), "iterations": 0,
                                 "backtracks": 0, "stalled": False}
