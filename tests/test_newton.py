import numpy as np
import pytest

from tgeom import SolverError
from tgeom.newton import BROYDEN_CONTRACTION, MAX_HALVINGS, MAX_STEPS, newton


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
                                 "jacobians": 0, "backtracks": 0, "stalled": False}


def _circle_diagonal(calls):
    def residual(z):
        return np.array([z[0] ** 2 + z[1] ** 2 - 4.0, z[0] - z[1]])

    def jacobian(z):
        calls.append(z.copy())
        return np.array([[2.0 * z[0], 2.0 * z[1]], [1.0, -1.0]])

    return residual, jacobian


def test_broyden_takes_fewer_jacobians_than_steps():
    # the same root as test_converges_to_known_root: the Jacobian runs once
    # per step without broyden, where no step predicts the tolerance, and
    # fewer times than that with it
    calls = []
    _, plain = newton(*_circle_diagonal(calls), [1.0, 0.5], 1e-13)
    assert len(calls) == plain.jacobians == plain.iterations
    calls = []
    z, record = newton(*_circle_diagonal(calls), [1.0, 0.5], 1e-13, broyden=True)
    assert np.allclose(z, np.sqrt(2.0), rtol=0, atol=1e-13)
    assert record.residual_norm <= 1e-13 and not record.stalled
    assert len(calls) == record.jacobians < plain.jacobians
    assert record.jacobians < record.iterations < MAX_STEPS
    assert record.backtracks == 0


def _cubic(c, points, calls):
    # z^3 + c z - 1, logging the points of its residuals and, for each
    # Jacobian, how many residuals came before it
    def residual(z):
        points.append(z.copy())
        return z ** 3 + c * z - 1.0

    def jacobian(z):
        calls.append(len(points))
        return np.array([[3.0 * z[0] ** 2 + c]])

    return residual, jacobian


def test_broyden_failed_update_takes_one_fresh_jacobian():
    # from -0.8 with c = 0.5: a stencil step, then a step on the update that
    # cuts |r| from 1.0 to 0.081; the next update's step raises it to 0.088,
    # so the solve takes one stencil Jacobian where it stands, with no
    # halving, and converges on its updates
    points, calls = [], []
    residual, jacobian = _cubic(0.5, points, calls)
    z, record = newton(residual, jacobian, [-0.8], 1e-13, broyden=True)
    assert record.residual_norm <= 1e-13 and not record.stalled
    assert (record.jacobians, record.backtracks) == (2, 0)
    assert record.iterations > 4
    assert calls == [1, 4]  # at the start, then at points[2]
    norms = [abs(float(p[0] ** 3 + 0.5 * p[0] - 1.0)) for p in points]
    assert norms[2] < 0.1 * norms[1] and norms[3] > norms[2]


def test_broyden_step_short_of_the_contraction_is_dropped():
    # from -1 with c = 1, steps on the update lower |r| but by less than
    # BROYDEN_CONTRACTION; each is dropped, uncounted as a halving, for a
    # stencil Jacobian at the point it left
    points, calls = [], []
    residual, jacobian = _cubic(1.0, points, calls)
    z, record = newton(residual, jacobian, [-1.0], 1e-13, broyden=True)
    assert record.residual_norm <= 1e-13 and not record.stalled
    assert record.backtracks == 0 and 2 < record.jacobians == len(calls) < record.iterations
    norms = [abs(float(p[0] ** 3 + p[0] - 1.0)) for p in points]
    for k in calls[1:]:  # points[k - 2] is where it stood, points[k - 1] the dropped trial
        assert BROYDEN_CONTRACTION * norms[k - 2] <= norms[k - 1] < norms[k - 2]


def test_broyden_singular_update_takes_a_fresh_jacobian():
    # an affine residual with root (0, 1) and a wrong Jacobian at the start:
    # the accepted first step makes the update [[0.75, 1.25], [0.375,
    # 0.625]], exactly singular, so the solve takes a stencil Jacobian where
    # it stands rather than raise, and that one is exact
    A = np.array([[-0.5, 0.0], [-1.25, -1.0]])
    calls = []

    def jacobian(z):
        calls.append(z.copy())
        return A if z.any() else np.array([[1.0, 1.0], [0.0, 1.0]])

    z, record = newton(lambda z: np.array([0.0, 1.0]) + A @ z, jacobian, [0.0, 0.0], 1e-13,
                       broyden=True)
    assert z.tolist() == [0.0, 1.0] and record.residual_norm == 0.0
    assert [c.tolist() for c in calls] == [[0.0, 0.0], [1.0, -1.0]]
    assert (record.iterations, record.jacobians, record.backtracks) == (2, 2, 0)


def _logged_circle(points, calls):
    # _circle_diagonal, logging the points of its residuals and, for each
    # Jacobian, how many residuals came before it
    residual, jacobian = _circle_diagonal([])

    def logged_residual(z):
        points.append(z.copy())
        return residual(z)

    def logged_jacobian(z):
        calls.append(len(points))
        return jacobian(z)

    return logged_residual, logged_jacobian


def _circle_norms(points):
    return [float(np.hypot(p[0] ** 2 + p[1] ** 2 - 4.0, p[0] - p[1])) for p in points]


def test_step_that_predicts_the_tolerance_keeps_its_jacobian():
    # at tol 1e-10 the fourth step takes |r| from 2.0e-3 to 2.6e-7, whose
    # contraction predicts 3.3e-11 from one more step: the fifth step reuses
    # the fourth Jacobian and lands at 6.5e-11.  At 1e-13 the prediction
    # misses the tolerance and every step takes a stencil Jacobian
    points, calls = [], []
    z, record = newton(*_logged_circle(points, calls), [1.0, 0.5], 1e-10)
    norms = _circle_norms(points)
    assert np.allclose(z, np.sqrt(2.0), rtol=0, atol=1e-10)
    assert (record.iterations, record.jacobians, record.backtracks) == (5, 4, 0)
    assert calls == [1, 2, 3, 4]
    assert norms[4] * (norms[4] / norms[3]) <= 1e-10 < norms[4]
    assert record.residual_norm == norms[5] <= 1e-10
    _, fresh = newton(*_circle_diagonal([]), [1.0, 0.5], 1e-13)
    assert fresh.iterations == fresh.jacobians == 5


def test_kept_jacobian_short_of_the_contraction_is_dropped():
    # a refresh that turns the kept Jacobian uphill: the chord step is
    # dropped, uncounted as a halving, for a stencil Jacobian at the point
    # it left, which converges
    points, calls, kept = [], [], []

    def uphill(J, z):
        kept.append(z.copy())
        return -J

    z, record = newton(*_logged_circle(points, calls), [1.0, 0.5], 1e-10, uphill)
    norms = _circle_norms(points)
    assert np.allclose(z, np.sqrt(2.0), rtol=0, atol=1e-10)
    assert (record.iterations, record.jacobians, record.backtracks) == (6, 5, 0)
    assert [k.tolist() for k in kept] == [points[4].tolist()]
    assert calls == [1, 2, 3, 4, 6]  # the fifth at points[4], where it stood
    assert norms[5] >= BROYDEN_CONTRACTION * norms[4]
    assert record.residual_norm == norms[6] <= 1e-10
