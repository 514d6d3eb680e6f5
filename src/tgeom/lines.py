"""Gradient lines: curves along which the two-point gradient of the world
function (or of its symmetric part) stays proportional to a fixed covector.

Two independent constructions are provided and cross-validated:

* an implicit solver that tracks the defining proportionality pointwise in
  the line parameter: predictor-corrector continuation along the parameter
  grid, whose predictor extrapolates the secant through the last two solved
  samples and whose corrector is the damped Newton iteration, and
* a geodesic-type ODE integrator driven by the coincidence Christoffel
  symbols (future: gamma + force, past: gamma - force, neutral: gamma):
  one adaptive Dormand-Prince 5(4) pass whose dense output is sampled on a
  uniform parameter grid.

The two parametrizations differ; comparisons resample both curves by
normalized chord length first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fd
from .calculus import coincidence_coefficients
from .errors import GeometryError, SingularMetricError, SolverError
from .newton import newton
from .worlds import WorldFunction, check_kind, world_from_callable

#: Below this parameter value the defining equation of a rough-antisymmetric
#: world (nonzero coincidence gradient) degenerates: its right side vanishes
#: while its left side cannot.
ROUGH_SMALL_TAU = 0.05


def _reads_gradient(kind: str) -> bool:
    """Whether the kind's equation has a coincidence-gradient term: the
    future/past ones do, the neutral one does not."""
    return kind in ("f", "p")


def _roughness(gradient) -> float:
    """The norm of the coincidence gradient in w.unit, above which (1e-10)
    a future/past equation is rough-antisymmetric, or 0.0 below it or for
    None, the neutral equation's, which reads none."""
    norm = 0.0 if gradient is None else float(np.linalg.norm(gradient))
    return norm if norm > 1e-10 else 0.0


@dataclass
class Trajectory:
    """Sampled parameterized curve with per-sample solver diagnostics."""

    params: np.ndarray
    points: np.ndarray
    kind: str
    residuals: np.ndarray
    warnings: list = field(default_factory=list)
    converged: np.ndarray = None

    def __post_init__(self):
        if len(self.params) != len(self.points):
            raise ValueError("params and points must have equal length")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("params must be finite")
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("params must be strictly increasing")


def gradient_line_implicit(w: WorldFunction, kind: str, x_start, x_end,
                           tau_grid: Sequence[float]) -> Trajectory:
    """Solve the implicit gradient-line system on the parameter grid.

    The curve runs from x_start (parameter 0) to x_end (parameter 1); the
    grid must be nonempty, finite and strictly increasing, which is checked
    before any world call.  Each grid value is solved by
    predictor-corrector continuation (Allgower & Georg, Numerical
    Continuation Methods, 1990, ch. 2): the predictor is the chord point
    x_start + tau (x_end - x_start) until two samples have converged, then
    the secant through the last two converged samples, extrapolated to tau;
    the corrector is the damped Newton iteration with Broyden-updated
    Jacobians (tgeom.newton, broyden=True): each solve, the chord retry's
    included, takes a second_order stencil Jacobian (fd) at its first step
    and again only where a step on an updated one fails to cut the
    residual norm tenfold (newton.BROYDEN_CONTRACTION).  A secant start that does not
    converge is retried once from the chord point.  On a straight line the
    secant is exact, so its samples take no Newton step.
    For rough-antisymmetric worlds the future/past equations degenerate as
    the parameter approaches zero; samples below ROUGH_SMALL_TAU then carry
    a structured warning instead of a silently wrong point.  A sample whose
    solve misses the tolerance then comes back unconverged rather than
    raising, and the warning's "unconverged" list names every such sample,
    at any parameter.
    """
    x_start = np.asarray(x_start, dtype=float)
    x_end = np.asarray(x_end, dtype=float)
    tau_grid = np.asarray(list(tau_grid), dtype=float)
    if not (tau_grid.size and np.all(np.isfinite(tau_grid))
            and np.all(np.diff(tau_grid) > 0)):
        raise ValueError("tau_grid must be nonempty, finite and strictly increasing")

    def lhs(x):  # gradient of the kind's k(x, x_start) in its x_start slot, in w.unit
        return fd.kind_tensor(w, kind, x, x_start, 0, 1) / w.unit

    rhs_covector = lhs(x_end)

    # a future/past line's left side at its start is -a or a: its norm is |a|.
    # A solve that starts there, as the parameter-0 sample's does, reuses it
    lhs_start = lhs(x_start) if _reads_gradient(kind) else None
    gradient_norm = _roughness(lhs_start)
    bad = tau_grid[np.abs(tau_grid) < ROUGH_SMALL_TAU]
    # a rough line is warned, and returns its unconverged samples rather than raising
    rough = bool(gradient_norm and bad.size)
    warnings = [{
        "code": "rough_antisymmetry_small_parameter",
        "message": (
            "the defining equation degenerates for small parameters "
            "when the coincidence gradient does not vanish; affected "
            f"samples: {bad.tolist()}"
        ),
        "gradient_norm": gradient_norm,
    }] if rough else []

    scale = 1.0 + float(np.linalg.norm(rhs_covector))

    def left(x):
        return lhs_start if lhs_start is not None and np.array_equal(x, x_start) else lhs(x)

    def solve_one(tau, start):
        target = tau * rhs_covector
        try:
            x, record = newton(lambda x: left(x) - target,
                               lambda x: fd.kind_tensor(w, kind, x, x_start, 1, 1,
                                                        second_order=True).T / w.unit,
                               start, 1e-12 * scale, broyden=True)
        except SolverError as exc:
            raise SolverError("singular Jacobian on gradient line",
                              {"parameter": float(tau), **exc.detail}) from exc
        return x, record, record.residual_norm <= 1e-9 * scale

    points, residuals, converged = [], [], []
    anchors = []  # (tau, x) of the last two converged samples
    for tau in tau_grid:
        chord_start = x_start + tau * (x_end - x_start)
        secant = len(anchors) == 2
        if secant:
            (t1, x1), (t2, x2) = anchors
            start = x2 + (tau - t2) / (t2 - t1) * (x2 - x1)
        else:
            start = chord_start
        x, record, ok = solve_one(tau, start)
        retried = not ok and secant
        if retried:
            # the secant can overshoot onto a bad branch; retry from the chord
            x_c, record_c, ok_c = solve_one(tau, chord_start)
            if ok_c or record_c.residual_norm < record.residual_norm:
                x, record, ok = x_c, record_c, ok_c
        norm = record.residual_norm
        if not ok and not rough:
            raise SolverError(
                f"gradient line solve failed at parameter {tau} (|r| = {norm:.3e})",
                {"parameter": float(tau), "chord_retry": retried, **record._asdict()},
            )
        points.append(x)
        residuals.append(norm / scale)
        converged.append(ok)
        if ok:
            anchors = anchors[-1:] + [(tau, x)]
    converged = np.asarray(converged)
    if not converged.all():  # only a rough line gets here: name every such sample
        warnings[0]["unconverged"] = tau_grid[~converged].tolist()
    return Trajectory(params=tau_grid, points=np.asarray(points), kind=kind,
                      residuals=np.asarray(residuals), warnings=warnings,
                      converged=converged)


#: the coincidence connection each kind's geodesic form integrates
_CONNECTION = {"f": "gamma_tilde_f", "p": "gamma_tilde_p", "n": "gamma"}


def initial_velocity(w: WorldFunction, kind: str, x_start, x_end) -> np.ndarray:
    """Tangent of the implicit gradient line at its start point.

    Differentiating the defining proportionality at parameter zero gives a
    linear system: the mixed second derivative at coincidence applied to the
    tangent equals the fixed covector of the pair.  This supplies initial
    data for the ODE form consistent with the implicit curve, without any
    boundary-value shooting.
    """
    x_start = np.asarray(x_start, dtype=float)
    x_end = np.asarray(x_end, dtype=float)
    # the kind's Jacobian at coincidence is that system's matrix
    try:
        v0 = np.linalg.solve(fd.kind_tensor(w, kind, x_start, x_start, 1, 1).T,
                             fd.kind_tensor(w, kind, x_end, x_start, 0, 1))
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError("initial-velocity system is singular") from exc
    if not np.all(np.isfinite(v0)):
        raise SingularMetricError("initial-velocity system has no finite solution")
    return v0


# Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's quartic
# dense output (Hairer, Norsett & Wanner, Solving ODEs I, 1993, II.4-II.6).
# The last stage is the right side at the accepted point (first same as
# last), so it starts the next step.  The equation is autonomous: the stage
# times are not needed.
_DP_A = tuple(np.array(row) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
))
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# fifth- minus fourth-order weights over all seven stages
_DP_E = np.array([-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])
# y(t + theta h) = y(t) + h K^T P (theta, theta^2, theta^3, theta^4)
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# error tolerance, relative and absolute, per component of the state (x, v)
_ODE_TOL = 1e-10
# step-size control: safety factor and the bounds of one step's change
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0
# attempted steps, accepted and rejected, before the integrator gives up
_ODE_MAX_STEPS = 500
# consecutive trial steps from one parameter whose stages meet a singular
# coincidence metric before the integrator gives up
_ODE_MAX_SINGULAR = 4


def gradient_line_ode(w: WorldFunction, kind: str, x0, v0, tau_span,
                      steps: int = 64) -> Trajectory:
    """Integrate the geodesic-type equation with the kind's coincidence
    connection by adaptive Dormand-Prince 5(4).

    One pass controls the step with the pair's embedded error estimate on
    the state (x, v) at a fixed tolerance of 1e-10.  Its first trial step
    spans the whole of tau_span, and the controller shrinks it when the
    estimate rejects it, so the accepted steps do not depend on steps.  The
    points are the pass's dense output on the uniform grid of
    2 max(4, steps) intervals over tau_span.  tau_span, its length, x0 and
    v0 must be finite, and a steps whose (2 max(4, steps) + 1, d) sample
    array has more bytes than np.iinfo(np.intp).max raises ValueError; both
    are checked, and the sample arrays allocated, before the first world
    call.  For the future/past kinds the world must be fine-antisymmetric
    (vanishing coincidence gradient at x0).  The per-sample residual is
    the embedded error estimate, relative to 1 + |state|, of the accepted
    step that contains the sample: below the tolerance.  A trial step whose
    stages meet a singular coincidence metric is rejected and shrunk; a few
    such rejections in a row from one parameter raise SolverError with the
    cause "singular metric".  A fixed budget of attempted steps bounds the
    work; running out of it raises SolverError.
    """
    connection = _CONNECTION[check_kind(kind)]
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    t0, t1 = (float(t) for t in tau_span)
    # the first trial step is the span's length, so that must be finite too
    if not (np.isfinite([t0, t1, t1 - t0]).all() and np.isfinite(x0).all()
            and np.isfinite(v0).all()):
        raise ValueError("tau_span, its length, x0 and v0 must be finite")
    if not t1 > t0:
        raise ValueError("tau_span must be increasing")
    d = len(x0)
    n = 2 * max(4, int(steps))
    if (n + 1) * d * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"steps {steps} asks for an array of more bytes "
                         "than numpy can address")
    params = np.linspace(t0, t1, n + 1)
    points = np.empty((n + 1, d))
    residuals = np.empty(n + 1)

    def rhs(y):  # d(x, v)/dtau and the coefficients at x
        cc = coincidence_coefficients(w, y[:d])
        v = y[d:]
        return np.concatenate([v, -np.einsum("ikl,k,l->i", getattr(cc, connection), v, v)]), cc

    y = np.concatenate([x0, v0])
    stages = np.empty((7, 2 * d))
    stages[0], cc = rhs(y)
    rough = _roughness(cc.a / w.unit if _reads_gradient(kind) else None)
    if rough:
        raise GeometryError(
            "future/past geodesic form needs a fine-antisymmetric world "
            f"(coincidence gradient norm {rough:.3e})"
        )

    sample = 0
    t, h = t0, t1 - t0
    error_norm = 0.0
    attempts = singular = 0
    rejected = False
    while sample <= n:
        if attempts == _ODE_MAX_STEPS:
            raise SolverError(
                f"geodesic integrator ran out of steps at parameter {t}",
                {"parameter": t, "step": h, "error_norm": error_norm, "steps": attempts},
            )
        attempts += 1
        last = t + h >= t1
        if last:
            h = t1 - t
        try:
            for s, a in enumerate(_DP_A, 1):
                stages[s], _ = rhs(y + h * (a @ stages[:s]))
            y_new = y + h * (_DP_B @ stages[:6])
            stages[6], _ = rhs(y_new)
        except SingularMetricError as exc:
            # a stage left the region where the connection exists: the trial
            # step is rejected, as one whose error estimate is too large
            singular += 1
            if singular == _ODE_MAX_SINGULAR:
                raise SolverError(
                    f"geodesic integrator meets a singular metric at parameter {t}",
                    {"parameter": t, "step": h, "cause": "singular metric"},
                ) from exc
            h *= _MIN_FACTOR
            rejected = True
            continue
        singular = 0
        scale = _ODE_TOL * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        error_norm = float(np.sqrt(np.mean((h * (_DP_E @ stages) / scale) ** 2)))
        if not error_norm < 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * error_norm ** -0.2)
            rejected = True
            continue

        t_new = t1 if last else t + h
        coef = stages.T @ _DP_P
        while sample <= n and (last or params[sample] < t_new):
            theta = (params[sample] - t) / h
            points[sample] = y[:d] + h * (coef[:d] @ (theta ** np.arange(1, 5)))
            residuals[sample] = error_norm * _ODE_TOL
            sample += 1
        factor = _MAX_FACTOR if error_norm == 0.0 else min(_MAX_FACTOR, _SAFETY * error_norm ** -0.2)
        h *= min(1.0, factor) if rejected else factor
        rejected = False
        t, y = t_new, y_new
        stages[0] = stages[6]
    return Trajectory(params=params, points=points, kind=kind, residuals=residuals,
                      warnings=[], converged=np.ones(n + 1, dtype=bool))


# ---------------------------------------------------------------------------
# Curve comparison helpers
# ---------------------------------------------------------------------------


# samples per curve in the chord-length comparisons
_RESAMPLE_POINTS = 129


def _resample_at_chord(points: np.ndarray, targets: np.ndarray, normalized: bool) -> np.ndarray:
    """A polyline's points at the given cumulative chord lengths, measured
    as fractions of its whole length when normalized.  A normalized polyline
    of zero length is its first point repeated."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if normalized:
        if s[-1] == 0.0:
            return np.repeat(points[:1], len(targets), axis=0)
        s /= s[-1]
    return np.stack([np.interp(targets, s, points[:, j]) for j in range(points.shape[1])],
                    axis=1)


def resample_by_chord(points: np.ndarray) -> np.ndarray:
    """Resample a polyline at 129 (_RESAMPLE_POINTS) points equally spaced in
    normalized cumulative chord length."""
    return _resample_at_chord(np.asarray(points, dtype=float),
                              np.linspace(0.0, 1.0, _RESAMPLE_POINTS), True)


def curve_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max pointwise distance between two curves after chord-length
    alignment."""
    ra = resample_by_chord(a)
    rb = resample_by_chord(b)
    return float(np.max(np.linalg.norm(ra - rb, axis=1)))


def path_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max pointwise distance between two curves compared at equal absolute
    chord length, truncated to the shorter curve.

    Unlike curve_deviation this does not assume the curves have the same
    extent; it measures how fast the paths separate while both exist.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    la = float(np.sum(np.linalg.norm(np.diff(a, axis=0), axis=1)))
    lb = float(np.sum(np.linalg.norm(np.diff(b, axis=0), axis=1)))
    targets = np.linspace(0.0, min(la, lb), _RESAMPLE_POINTS)
    ra = _resample_at_chord(a, targets, False)
    rb = _resample_at_chord(b, targets, False)
    return float(np.max(np.linalg.norm(ra - rb, axis=1)))


# ---------------------------------------------------------------------------
# Reparametrization invariance
# ---------------------------------------------------------------------------


def reparam_invariance_check(w: WorldFunction, transform, kind: str, x_start,
                             x_end, tau_grid: Sequence[float]) -> float:
    """Max chord-aligned deviation between the gradient line of the world
    and that of the monotonically transformed world f(w).

    transform is the pair (f, f_prime) of vectorized callables.  f_prime
    must be positive over the world-function values encountered; this is
    validated on the solved samples.
    """
    f_map, f_prime = transform
    wt = world_from_callable(lambda a, b: f_map(w(a, b)), w.dim,
                             label=f"{w.kind}|transformed")
    base = gradient_line_implicit(w, kind, x_start, x_end, tau_grid)

    values = np.concatenate([w(base.points, x_start), w(x_start, base.points)])
    derivs = f_prime(values)
    if not np.all(derivs > 0.0):
        raise GeometryError(
            "transform derivative is not positive over the encountered values "
            "(it changes sign or is NaN)"
        )
    transformed = gradient_line_implicit(wt, kind, x_start, x_end, tau_grid)
    return curve_deviation(base.points, transformed.points)
