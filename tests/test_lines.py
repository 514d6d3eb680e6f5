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
from tgeom.newton import newton
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
    # first stage and six per attempted step; on this nearly straight line
    # the whole-span first trial step is accepted
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return small_cubic(a, b)

    v0 = initial_velocity(small_cubic, "f", XA, XB)
    gradient_line_ode(world_from_callable(counted, 4), "f", XA, v0, (0, 1), steps=8)
    assert (len(sizes), sum(sizes)) == (7, 7399)


@pytest.mark.parametrize("scale", [4e-4, 0.1])
@pytest.mark.parametrize("kind", ["f", "p", "n"])
def test_ode_path_ignores_output_grid(kind, scale):
    # the first trial step spans the line, so the accepted steps, and the
    # dense output at the parameters the grids share, do not depend on steps
    w = world("cubic_a", a3=random_a3(scale=scale, seed=5).ravel().tolist())
    v0 = initial_velocity(w, kind, XA, XB)
    coarse, mid, fine = (gradient_line_ode(w, kind, XA, v0, (0, 1), steps=s) for s in (4, 8, 16))
    assert np.array_equal(coarse.points, mid.points[::2])
    assert np.array_equal(mid.points, fine.points[::2])
    assert np.array_equal(coarse.params, fine.params[::4])


@pytest.mark.parametrize("tau_span, x0, v0", [
    ((0.0, np.inf), XA, XB), ((np.nan, 1.0), XA, XB),
    ((-1e308, 1e308), XA, XB), ((0.0, 1.0), [0.0, np.nan, 0.0, 0.0], XB),
    ((0.0, 1.0), XA, [np.inf, 0.0, 0.0, 0.0]),
], ids=["inf-span", "nan-span", "overflowing-length", "nan-x0", "inf-v0"])
def test_ode_rejects_non_finite_input_before_world_calls(cubic, tau_span, x0, v0):
    calls = []

    def counted(a, b):
        calls.append(1)
        return cubic(a, b)

    with pytest.raises(ValueError, match="must be finite"):
        gradient_line_ode(world_from_callable(counted, 4), "n", x0, v0, tau_span)
    assert calls == []


@pytest.mark.parametrize("tau_span", [(1.0, 0.0), (0.5, 0.5)], ids=["reversed", "empty"])
def test_ode_rejects_a_span_that_does_not_increase(cubic, tau_span):
    calls = []

    def counted(a, b):
        calls.append(1)
        return cubic(a, b)

    with pytest.raises(ValueError, match="tau_span must be increasing"):
        gradient_line_ode(world_from_callable(counted, 4), "n", XA, XB, tau_span)
    assert calls == []


@pytest.mark.parametrize("steps", [2**57, 2**62])
def test_ode_rejects_unaddressable_grid_before_world_calls(cubic, steps):
    # 2 steps + 1 rows of 4 floats: 2**57 is the least steps whose sample
    # array has more bytes than np.intp can count.  The integrator checks
    # that itself, with its own message, before any world call
    calls = []

    def counted(a, b):
        calls.append(1)
        return cubic(a, b)

    with pytest.raises(ValueError, match="more bytes than numpy can address"):
        gradient_line_ode(world_from_callable(counted, 4), "n", XA, XB, (0, 1), steps=steps)
    assert calls == []


def test_implicit_world_point_budget(cubic):
    # 13 Newton solves of 24 iterations in all, none at tau = 0 and two at
    # each later sample: a 16-point (0, 1) stencil per residual, and a
    # 49-point (1, 1) Jacobian on the seven-point rule for the first iteration
    # of each solve only, the second stepping on its Broyden update; plus
    # the target covector and the left side at the start, whose norm is the
    # coincidence gradient's
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return cubic(a, b)

    traj = gradient_line_implicit(world_from_callable(counted, 4), "f", XA, XB, GRID)
    assert traj.converged.all()
    assert (len(sizes), sum(sizes)) == (51, 1212)


@pytest.mark.parametrize("kind, budget", [("f", (15, 240)), ("p", (15, 240)), ("n", (27, 448))])
def test_implicit_straight_line_takes_no_newton_step(minkowski, monkeypatch, kind, budget):
    # the chord start and the secant through two samples of a straight,
    # affinely parametrized line both lie on it: each sample costs one
    # residual and no Newton step (the neutral kind reads no left side at
    # the start for the rough-line test)
    iterations = []
    sizes = []

    def spy(*args, **kwargs):
        x, record = newton(*args, **kwargs)
        iterations.append(record.iterations)
        return x, record

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return minkowski(a, b)

    monkeypatch.setattr(lines, "newton", spy)
    traj = gradient_line_implicit(world_from_callable(counted, 4), kind, XA, XB, GRID)
    assert np.max(np.abs(traj.points - chord(GRID))) < 1e-12
    assert len(iterations) == len(GRID) and not any(iterations[2:])
    assert (len(sizes), sum(sizes)) == budget


# shares seven of the uniform grid's values and adds four of its own
NONUNIFORM = np.union1d(GRID[[0, 1, 3, 6, 7, 11, 12]], [0.02, 0.2, 0.55, 0.9])


@pytest.mark.parametrize("kind", ["f", "p", "n"])
@pytest.mark.parametrize("family", ["cubic", "case2"])
def test_implicit_predictor_independence(request, family, kind):
    # the predictor only moves Newton's start: samples at shared parameters
    # agree within the acceptance tolerance however the grid is spaced
    w = request.getfixturevalue(family)
    uniform = gradient_line_implicit(w, kind, XA, XB, GRID)
    spaced = gradient_line_implicit(w, kind, XA, XB, NONUNIFORM)
    assert uniform.converged.all() and spaced.converged.all()
    shared, iu, isp = np.intersect1d(GRID, NONUNIFORM, return_indices=True)
    assert len(shared) == 7
    assert np.max(np.abs(uniform.points[iu] - spaced.points[isp])) < 1e-9


@pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [0.0, 0.5, 0.5, 1.0],
                                  [0.0, 0.6, 0.4, 1.0], []],
                         ids=["nan", "inf", "repeated", "decreasing", "empty"])
def test_implicit_rejects_bad_grid_before_world_calls(cubic, grid):
    calls = []

    def counted(a, b):
        calls.append(1)
        return cubic(a, b)

    with pytest.raises(ValueError, match="finite and strictly increasing"):
        gradient_line_implicit(world_from_callable(counted, 4), "f", XA, XB, grid)
    assert calls == []


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


def test_ode_step_budget_exhausted(monkeypatch):
    # the whole-span first trial is rejected on this curved world, and the
    # budget runs out after the first accepted step, inside the span
    monkeypatch.setattr(lines, "_ODE_MAX_STEPS", 2)
    w = world("cubic_a", a3=random_a3(scale=0.03, seed=5).ravel().tolist())
    v0 = initial_velocity(w, "f", XA, XB)
    with pytest.raises(SolverError) as info:
        gradient_line_ode(w, "f", XA, v0, (0, 1), steps=8)
    detail = info.value.detail
    assert set(detail) == {"parameter", "step", "error_norm", "steps"}
    assert detail["steps"] == 2 and 0 < detail["parameter"] < 1
    assert detail["step"] > 0 and 0 <= detail["error_norm"] < 1


def _singular_reproducer():
    # the whole-span first trial of this kind-f line lands where the
    # coincidence metric of this curved world is singular
    w = world("cubic_a", a3=random_a3(scale=0.3, seed=0).ravel().tolist())
    return w, initial_velocity(w, "f", XA, XB)


def test_ode_singular_stage_rejects_the_step(monkeypatch):
    # the failed stage rejects the trial step instead of escaping; the line
    # then goes on until this small budget runs out inside the span
    monkeypatch.setattr(lines, "_ODE_MAX_STEPS", 6)
    w, v0 = _singular_reproducer()
    with pytest.raises(SolverError) as info:
        gradient_line_ode(w, "f", XA, v0, (0, 100))
    detail = info.value.detail
    assert set(detail) == {"parameter", "step", "error_norm", "steps"}
    assert detail["steps"] == 6 and 0 < detail["parameter"] < 100


def test_ode_singular_stages_in_a_row_raise_with_a_cause(monkeypatch):
    # once the allowed run of singular stages from one parameter is spent,
    # the error names the parameter, the step and the cause
    monkeypatch.setattr(lines, "_ODE_MAX_SINGULAR", 1)
    w, v0 = _singular_reproducer()
    with pytest.raises(SolverError, match="singular metric at parameter 0.0") as info:
        gradient_line_ode(w, "f", XA, v0, (0, 100))
    assert info.value.detail == {"parameter": 0.0, "step": 100.0, "cause": "singular metric"}


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


def test_rough_antisymmetry_warning_names_every_unconverged_sample(case1, case2):
    # the warned range holds only tau = 0, but the past-kind solves also miss
    # the tolerance further along the line (relative residuals 0.36 down to
    # 0.024): the warning names each of them, and the line still comes back
    traj = gradient_line_implicit(case1, "p", XA, XB, GRID)
    (warning,) = traj.warnings
    assert "affected samples: [0.0]" in warning["message"]
    assert warning["unconverged"] == GRID[~traj.converged].tolist()
    assert traj.converged.tolist() == [False] * 12 + [True]
    # a warned line whose samples all converge carries no such list
    traj = gradient_line_implicit(case2, "p", XA, XB, GRID)
    assert traj.converged.all() and "unconverged" not in traj.warnings[0]


# the worst measured relative distance between a converged sample and the
# same sample solved with a stencil Jacobian at every step is 2.3e-12, on
# case2 kind f towards XB
_BROYDEN_BUDGET = 1e-11


@pytest.mark.parametrize("kind", ["f", "p", "n"])
@pytest.mark.parametrize("family", ["euclidean", "constant_a", "case1", "case2", "cubic_a"])
def test_implicit_broyden_matches_stencil_jacobians(all_worlds, monkeypatch, family, kind):
    # the reference solves with broyden=False; the Broyden updates may move
    # where a solve stops within its tolerance, but no flag or warning
    w = all_worlds[family]
    for x_end in (XB, np.array([0.8, -0.2, 0.4, 0.1]), np.array([1.5, 0.5, 0.2, -0.3])):
        traj = gradient_line_implicit(w, kind, XA, x_end, GRID)
        with monkeypatch.context() as patch:
            patch.setattr(lines, "newton", lambda *args, broyden: newton(*args))
            ref = gradient_line_implicit(w, kind, XA, x_end, GRID)
        assert traj.converged.tolist() == ref.converged.tolist()
        assert traj.warnings == ref.warnings
        ok = ref.converged
        dev = np.linalg.norm(traj.points[ok] - ref.points[ok], axis=1)
        assert np.all(dev <= _BROYDEN_BUDGET * (1.0 + np.linalg.norm(ref.points[ok], axis=1)))


def test_implicit_chord_retry_rescues_secant_start(monkeypatch):
    # on a strongly cubic world one secant start misses the tolerance and the
    # retry from the chord point converges: five samples take six Newton
    # solves, and without the retry the line would raise
    w = world("cubic_a", a3=random_a3(scale=1.0, seed=2).ravel().tolist())
    solves = []

    def spy(*args, **kwargs):
        x, record = newton(*args, **kwargs)
        solves.append(record.residual_norm)
        return x, record

    monkeypatch.setattr(lines, "newton", spy)
    traj = gradient_line_implicit(w, "f", XA, np.array([1.0, 0.4, -0.2, 0.1]),
                                  np.linspace(0.0, 1.0, 5))
    assert len(solves) == 6
    assert traj.converged.all() and traj.warnings == []
    assert np.max(traj.residuals) <= 1e-9


def test_reparam_invariance_scaling(minkowski):
    scale = (lambda s: 2.0 * s), (lambda s: np.full_like(s, 2.0))
    dev = reparam_invariance_check(minkowski, scale, "f", XA, XB, GRID)
    assert dev < 1e-10


def test_reparam_invariance_quadratic(small_cubic):
    quadratic = (lambda s: s + 0.01 * s * s), (lambda s: 1.0 + 0.02 * s)
    dev = reparam_invariance_check(small_cubic, quadratic, "f", XA, XB, GRID)
    assert dev < 1e-6


def test_reparam_identity(minkowski):
    assert reparam_invariance_check(minkowski, (lambda s: s, np.ones_like), "n",
                                    XA, XB, GRID) == 0.0


def test_reparam_rejects_sign_change(small_cubic):
    # derivative 1 + 2 eps s changes sign over the encountered values
    quadratic = (lambda s: s - 2.0 * s * s), (lambda s: 1.0 - 4.0 * s)
    with pytest.raises(GeometryError, match="sign"):
        reparam_invariance_check(small_cubic, quadratic, "f", XA, XB, GRID)


def test_reparam_rejects_nan_derivative(minkowski):
    # NaN compares false both ways, so it must not pass as positive
    nan_prime = (lambda s: s), (lambda s: np.full_like(s, np.nan))
    with pytest.raises(GeometryError, match="NaN"):
        reparam_invariance_check(minkowski, nan_prime, "f", XA, XB, GRID)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="finite"):
        Trajectory(params=np.array([0.0, np.nan]), points=np.zeros((2, 2)),
                   kind="f", residuals=np.zeros(2))
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
