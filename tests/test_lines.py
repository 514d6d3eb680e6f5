import numpy as np
import pytest

from tgeom import (
    GeometryError,
    SingularMetricError,
    SolverError,
    Trajectory,
    curve_deviation,
    gradient_line_implicit,
    gradient_line_ode,
    initial_velocity,
    path_deviation,
    reparam_invariance_check,
    world_from_callable,
)
from tgeom import lines
from tgeom.calculus import coincidence_coefficients
from conftest import random_a3, world

MINK = np.diag([1.0, -1.0, -1.0, -1.0])
XA = np.zeros(4)
XB = np.array([1.0, 0.3, -0.2, 0.1])
GRID = np.linspace(0.0, 1.0, 13)


@pytest.fixture(scope="module")
def small_cubic():
    # small cubic coefficients: the implicit and geodesic forms agree to
    # second order in the coefficients
    return world("cubic_a", a3=random_a3(scale=4e-4, seed=5).ravel().tolist())


def chord(taus):
    return XA + np.asarray(taus)[:, None] * (XB - XA)


def test_implicit_straight_on_flat(minkowski):
    traj = gradient_line_implicit(minkowski, "f", XA, XB, GRID)
    assert np.max(np.abs(traj.points - chord(GRID))) < 1e-10
    assert np.max(np.abs(traj.points[0] - XA)) < 1e-12
    assert np.max(np.abs(traj.points[-1] - XB)) < 1e-9
    assert np.max(traj.residuals) < 1e-11
    assert traj.warnings == []


def test_implicit_neutral_constant_anisotropy(const_a4, minkowski):
    # the symmetric part drops the covector: neutral lines are straight
    traj = gradient_line_implicit(const_a4, "n", XA, XB, GRID)
    ref = gradient_line_implicit(minkowski, "n", XA, XB, GRID)
    assert np.max(np.abs(traj.points - ref.points)) < 1e-10


def test_three_kinds_coincide_symmetric(minkowski):
    trajs = {k: gradient_line_implicit(minkowski, k, XA, XB, GRID) for k in "fpn"}
    for k in "pn":
        assert np.max(np.abs(trajs[k].points - trajs["f"].points)) < 1e-9


def test_ode_straight_on_flat(minkowski):
    traj = gradient_line_ode(minkowski, "f", XA, XB - XA, (0, 1), steps=8)
    dev = curve_deviation(traj.points, chord(np.linspace(0, 1, 9)))
    assert dev < 1e-10
    assert np.max(traj.residuals) < 1e-12  # the step error estimate: straight lines


def test_implicit_vs_ode_cross_validation(small_cubic):
    traj_i = gradient_line_implicit(small_cubic, "f", XA, XB, np.linspace(0, 1, 21))
    # the curve genuinely bends away from the chord
    assert curve_deviation(traj_i.points, chord(np.linspace(0, 1, 21))) > 1e-5
    v0 = initial_velocity(small_cubic, "f", XA, XB)
    traj_o = gradient_line_ode(small_cubic, "f", XA, v0, (0, 1), steps=16)
    assert curve_deviation(traj_i.points, traj_o.points) < 1e-6


def test_future_past_differ_and_flip_with_coefficients():
    a3 = random_a3(scale=0.03, seed=6)
    w_pos = world("cubic_a", a3=a3.ravel().tolist())
    w_neg = world("cubic_a", a3=(-a3).ravel().tolist())
    v0 = np.array([1.0, 0.2, -0.1, 0.05])
    f_pos = gradient_line_ode(w_pos, "f", XA, v0, (0, 1), steps=16)
    p_pos = gradient_line_ode(w_pos, "p", XA, v0, (0, 1), steps=16)
    f_neg = gradient_line_ode(w_neg, "f", XA, v0, (0, 1), steps=16)
    assert np.max(np.abs(f_pos.points - p_pos.points)) > 1e-4
    # negating the coefficients swaps the future and past force terms
    assert np.max(np.abs(p_pos.points - f_neg.points)) < 1e-12


def test_neutral_ode_ignores_force(cubic, minkowski):
    v0 = np.array([1.0, 0.2, -0.1, 0.05])
    tr_c = gradient_line_ode(cubic, "n", XA, v0, (0, 1), steps=16)
    tr_e = gradient_line_ode(minkowski, "n", XA, v0, (0, 1), steps=16)
    assert curve_deviation(tr_c.points, tr_e.points) < 1e-9


def test_ode_world_call_budget(small_cubic):
    # one Dormand-Prince pass: one coincidence pass (one world call) for the
    # first stage and six per attempted step
    calls = []

    def counted(a, b):
        calls.append(1)
        return small_cubic(a, b)

    v0 = initial_velocity(small_cubic, "f", XA, XB)
    gradient_line_ode(world_from_callable(counted, 4), "f", XA, v0, (0, 1), steps=8)
    assert len(calls) <= 30


@pytest.mark.parametrize("steps", [2, 5, 8])
def test_ode_output_grid(small_cubic, steps):
    v0 = initial_velocity(small_cubic, "f", XA, XB)
    traj = gradient_line_ode(small_cubic, "f", XA, v0, (0.25, 1.5), steps=steps)
    n = 2 * max(4, steps)
    assert np.array_equal(traj.params, np.linspace(0.25, 1.5, n + 1))
    assert traj.points.shape == (n + 1, 4) and traj.residuals.shape == (n + 1,)
    assert np.array_equal(traj.points[0], XA)
    assert np.all(traj.residuals <= 1e-10)  # every row holds an accepted step's estimate
    assert traj.converged.all() and traj.warnings == []


@pytest.mark.parametrize("kind", ["f", "p", "n"])
def test_ode_residual_is_step_error(kind):
    # the residual column is the solver's own error estimate, so it stays at
    # the tolerance for every kind; the drift of v.g.v it replaced read 1e-2
    # here for kinds f and p, whose connections do not preserve g
    w = world("cubic_a", a3=random_a3(scale=0.03, seed=5).ravel().tolist())
    v0 = initial_velocity(w, kind, XA, XB)
    traj = gradient_line_ode(w, kind, XA, v0, (0, 1), steps=16)
    assert np.all(traj.residuals <= 1e-10)


@pytest.mark.parametrize("kind, scale, steps", [("f", 4e-4, 8), ("p", 0.03, 16)])
def test_ode_matches_dop853(kind, scale, steps):
    integrate = pytest.importorskip("scipy.integrate")
    w = world("cubic_a", a3=random_a3(scale=scale, seed=5).ravel().tolist())
    v0 = initial_velocity(w, kind, XA, XB)
    connection = lines._CONNECTION[kind]

    def rhs(_, y):
        v = y[4:]
        gam = getattr(coincidence_coefficients(w, y[:4]), connection)
        return np.concatenate([v, -np.einsum("ikl,k,l->i", gam, v, v)])

    traj = gradient_line_ode(w, kind, XA, v0, (0, 1), steps=steps)
    ref = integrate.solve_ivp(rhs, (0, 1), np.concatenate([XA, v0]), method="DOP853",
                              rtol=1e-12, atol=1e-12, t_eval=traj.params)
    assert ref.success
    assert np.max(np.abs(traj.points - ref.y[:4].T)) < 1e-9


@pytest.mark.parametrize("w, end, detail", [
    (world("case1", b=[1, 0, 0, 0], alpha=1e200), [0.1] * 4, "is singular"),
    (world_from_callable(  # a tiny mixed term against a huge end-point gradient
        lambda a, b: (1e-10 * a[..., 0] + 1e300 * np.maximum(a[..., 0] - 0.25, 0.0)) * b[..., 0],
        1, label="overflow"), [0.5], "no finite solution"),
], ids=["singular", "overflow"])
def test_initial_velocity_unsolvable_is_singular_metric(w, end, detail):
    with pytest.raises(SingularMetricError, match=detail):
        initial_velocity(w, "f", np.zeros(w.dim), end)


def test_ode_step_budget_exhausted(small_cubic, monkeypatch):
    monkeypatch.setattr(lines, "_ODE_MAX_STEPS", 1)
    v0 = initial_velocity(small_cubic, "f", XA, XB)
    with pytest.raises(SolverError) as info:
        gradient_line_ode(small_cubic, "f", XA, v0, (0, 1), steps=8)
    detail = info.value.detail
    assert set(detail) == {"parameter", "step", "error_norm", "steps"}
    assert detail["steps"] == 1 and 0 < detail["parameter"] < 1
    assert detail["step"] > 0 and 0 <= detail["error_norm"] < 1


def test_ode_rejects_rough_antisymmetry(case1):
    with pytest.raises(GeometryError, match="fine-antisymmetric"):
        gradient_line_ode(case1, "f", XA, XB - XA, (0, 1))
    # neutral form only uses the symmetric part: allowed
    traj = gradient_line_ode(case1, "n", XA, XB - XA, (0, 1), steps=8)
    assert traj.points.shape[1] == 4


def test_rough_antisymmetry_guard(case1):
    grid = np.linspace(0.01, 1.0, 15)
    traj = gradient_line_implicit(case1, "f", XA, XB, grid)
    assert traj.warnings
    assert traj.warnings[0]["code"] == "rough_antisymmetry_small_parameter"
    # samples away from the degenerate region converged
    assert traj.converged[-1]


def test_reparam_invariance_scaling(minkowski):
    dev = reparam_invariance_check(minkowski, ("scale", 2.0), "f", XA, XB, GRID)
    assert dev < 1e-10


def test_reparam_invariance_quadratic(small_cubic):
    dev = reparam_invariance_check(small_cubic, ("quadratic", 0.01), "f",
                                   XA, XB, GRID)
    assert dev < 1e-6


def test_reparam_identity(minkowski):
    assert reparam_invariance_check(minkowski, "identity", "n", XA, XB, GRID) == 0.0


def test_reparam_rejects_sign_change(small_cubic):
    # derivative 1 + 2 eps s changes sign over the encountered values
    with pytest.raises(GeometryError, match="sign"):
        reparam_invariance_check(small_cubic, ("quadratic", -2.0), "f",
                                 XA, XB, GRID)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(params=np.array([0.0, 0.0, 1.0]),
                   points=np.zeros((3, 2)), kind="f",
                   residuals=np.zeros(3))
    with pytest.raises(ValueError, match="equal length"):
        Trajectory(params=np.array([0.0, 1.0]), points=np.zeros((3, 2)),
                   kind="f", residuals=np.zeros(3))


def test_path_deviation_truncates():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    b = np.array([[0.0, 0.1], [4.0, 0.1]])
    assert path_deviation(a, b) == pytest.approx(0.1)
