"""Gradient lines: curves along which the two-point gradient of the world
function (or of its symmetric part) stays proportional to a fixed covector.

Two independent constructions are provided and cross-validated:

* an implicit solver that tracks the defining proportionality pointwise in
  the line parameter (Newton continuation along the parameter grid), and
* a geodesic-type ODE integrator driven by the coincidence Christoffel
  symbols (future: gamma + force, past: gamma - force, neutral: gamma).

The two parametrizations differ; comparisons resample both curves by
normalized chord length first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fd
from .calculus import coincidence_coefficients
from .errors import GeometryError, SolverError
from .newton import newton
from .worlds import WorldFunction, check_kind, world_from_callable

#: Below this parameter value the defining equation of a rough-antisymmetric
#: world (nonzero coincidence gradient) degenerates: its right side vanishes
#: while its left side cannot.
ROUGH_SMALL_TAU = 0.05


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
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("params must be strictly increasing")


def coincidence_gradient(w: WorldFunction, x) -> np.ndarray:
    """Coincidence limit of the antisymmetric part's gradient (the rough
    antisymmetry field)."""
    x = np.asarray(x, dtype=float)
    return fd.part_tensors(w, x, x, [(1, 0)])["asym"][(1, 0)]


def gradient_line_implicit(w: WorldFunction, kind: str, x_start, x_end,
                           tau_grid: Sequence[float]) -> Trajectory:
    """Solve the implicit gradient-line system on the parameter grid.

    The curve runs from x_start (parameter 0) to x_end (parameter 1).  Each
    grid value is Newton-solved warm-started from the previous solution.
    For rough-antisymmetric worlds the future/past equations degenerate as
    the parameter approaches zero; samples below ROUGH_SMALL_TAU then carry
    a structured warning instead of a silently wrong point.
    """
    x_start = np.asarray(x_start, dtype=float)
    x_end = np.asarray(x_end, dtype=float)
    tau_grid = np.asarray(list(tau_grid), dtype=float)

    def lhs(x):  # gradient of the kind's k(x, x_start) in its x_start slot
        return fd.kind_tensor(w, kind, x, x_start, 0, 1)

    rhs_covector = lhs(x_end)

    warnings = []
    rough = float(np.linalg.norm(coincidence_gradient(w, x_start)))
    if kind in ("f", "p") and rough > 1e-10:
        bad = tau_grid[np.abs(tau_grid) < ROUGH_SMALL_TAU]
        if bad.size:
            warnings.append({
                "code": "rough_antisymmetry_small_parameter",
                "message": (
                    "the defining equation degenerates for small parameters "
                    "when the coincidence gradient does not vanish; affected "
                    f"samples: {bad.tolist()}"
                ),
                "gradient_norm": rough,
            })

    scale = 1.0 + float(np.linalg.norm(rhs_covector))

    def solve_one(tau, start):
        target = tau * rhs_covector
        try:
            x, record = newton(lambda x: lhs(x) - target,
                               lambda x: fd.kind_tensor(w, kind, x, x_start, 1, 1).T,
                               start, 1e-12 * scale)
        except SolverError as exc:
            raise SolverError("singular Jacobian on gradient line",
                              {"parameter": float(tau), **exc.detail}) from exc
        return x, record, record.residual_norm <= 1e-9 * scale

    points, residuals, converged = [], [], []
    last_good = None
    for tau in tau_grid:
        chord_start = x_start + tau * (x_end - x_start)
        x, record, ok = solve_one(tau, last_good if last_good is not None
                                  else chord_start)
        retried = not ok and last_good is not None
        if retried:
            # the warm start can inherit a bad branch; retry from the chord
            x2, record2, ok2 = solve_one(tau, chord_start)
            if ok2 or record2.residual_norm < record.residual_norm:
                x, record, ok = x2, record2, ok2
        norm = record.residual_norm
        if not ok and not warnings:
            raise SolverError(
                f"gradient line solve failed at parameter {tau} (|r| = {norm:.3e})",
                {"parameter": float(tau), "chord_retry": retried, **record._asdict()},
            )
        points.append(x)
        residuals.append(norm / scale)
        converged.append(ok)
        if ok:
            last_good = x
    return Trajectory(params=tau_grid, points=np.asarray(points), kind=kind,
                      residuals=np.asarray(residuals), warnings=warnings,
                      converged=np.asarray(converged))


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
    return np.linalg.solve(fd.kind_tensor(w, kind, x_start, x_start, 1, 1).T,
                           fd.kind_tensor(w, kind, x_end, x_start, 0, 1))


def gradient_line_ode(w: WorldFunction, kind: str, x0, v0, tau_span,
                      steps: int = 64) -> Trajectory:
    """Integrate the geodesic-type equation with the kind's coincidence
    connection by fixed-step RK4.

    The step count doubles until halving it moves the endpoint by less than
    1e-8 (self-convergence check).  For the future/past kinds the world must
    be fine-antisymmetric (vanishing coincidence gradient at x0).  The
    per-sample diagnostic is the relative drift of the metric square of the
    velocity.
    """
    connection = _CONNECTION[check_kind(kind)]
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if kind in ("f", "p"):
        rough = float(np.linalg.norm(coincidence_gradient(w, x0)))
        if rough > 1e-10:
            raise GeometryError(
                "future/past geodesic form needs a fine-antisymmetric world "
                f"(coincidence gradient norm {rough:.3e})"
            )

    def accel(x, v):
        cc = coincidence_coefficients(w, x)
        return -np.einsum("ikl,k,l->i", getattr(cc, connection), v, v), cc.g

    # the first stage of every step-count trial starts at (x0, v0)
    first_stage = accel(x0, v0)

    def integrate(n):
        t0, t1 = tau_span
        h = (t1 - t0) / n
        xs = [x0.copy()]
        energies = [0.0]
        x, v = x0.copy(), v0.copy()
        g0 = None
        for step in range(n):
            a1, g = first_stage if step == 0 else accel(x, v)
            if g0 is None:
                g0 = float(v @ g @ v)
            energies[-1] = abs(float(v @ g @ v) - g0) / (1.0 + abs(g0))
            k1x, k1v = v, a1
            a2, _ = accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
            k2x, k2v = v + 0.5 * h * k1v, a2
            a3, _ = accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
            k3x, k3v = v + 0.5 * h * k2v, a3
            a4, _ = accel(x + h * k3x, v + h * k3v)
            k4x, k4v = v + h * k3v, a4
            x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            xs.append(x.copy())
            energies.append(energies[-1])
        return np.asarray(xs), np.asarray(energies)

    n = max(4, int(steps))
    xs, energy = integrate(n)
    for attempt in range(5):
        xs2, energy2 = integrate(2 * n)
        change = float(np.linalg.norm(xs2[-1] - xs[-1]))
        close = change < 1e-8 * (1.0 + np.linalg.norm(xs[-1]))
        xs, energy = xs2, energy2
        n *= 2
        if close:
            break
    else:
        raise SolverError("geodesic integrator failed its self-convergence check",
                          {"steps": n, "endpoint_change": change})
    params = np.linspace(tau_span[0], tau_span[1], n + 1)
    return Trajectory(params=params, points=xs, kind=kind, residuals=energy,
                      warnings=[], converged=np.ones(n + 1, dtype=bool))


# ---------------------------------------------------------------------------
# Curve comparison helpers
# ---------------------------------------------------------------------------


def resample_by_chord(points: np.ndarray, n: int = 129) -> np.ndarray:
    """Resample a polyline at n points equally spaced in normalized
    cumulative chord length."""
    points = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return np.repeat(points[:1], n, axis=0)
    s /= s[-1]
    targets = np.linspace(0.0, 1.0, n)
    out = np.empty((n, points.shape[1]))
    for j in range(points.shape[1]):
        out[:, j] = np.interp(targets, s, points[:, j])
    return out


def curve_deviation(a: np.ndarray, b: np.ndarray, n: int = 129) -> float:
    """Max pointwise distance between two curves after chord-length
    alignment."""
    ra = resample_by_chord(a, n)
    rb = resample_by_chord(b, n)
    return float(np.max(np.linalg.norm(ra - rb, axis=1)))


def _resample_by_abs_arc(points: np.ndarray, smax: float, n: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, smax, n)
    return np.stack(
        [np.interp(targets, s, points[:, j]) for j in range(points.shape[1])],
        axis=1,
    )


def path_deviation(a: np.ndarray, b: np.ndarray, n: int = 129) -> float:
    """Max pointwise distance between two curves compared at equal absolute
    chord length, truncated to the shorter curve.

    Unlike curve_deviation this does not assume the curves have the same
    extent; it measures how fast the paths separate while both exist.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    la = float(np.sum(np.linalg.norm(np.diff(a, axis=0), axis=1)))
    lb = float(np.sum(np.linalg.norm(np.diff(b, axis=0), axis=1)))
    smax = min(la, lb)
    ra = _resample_by_abs_arc(a, smax, n)
    rb = _resample_by_abs_arc(b, smax, n)
    return float(np.max(np.linalg.norm(ra - rb, axis=1)))


# ---------------------------------------------------------------------------
# Reparametrization invariance
# ---------------------------------------------------------------------------


def _map_from_descriptor(descriptor) -> tuple[Callable, Callable]:
    """Shipped monotone maps of the world-function value: ('scale', c) and
    ('quadratic', eps), plus 'identity'."""
    if descriptor == "identity":
        return (lambda s: s), (lambda s: np.ones_like(np.asarray(s, float)))
    name, param = descriptor
    if name == "scale":
        c = float(param)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return (lambda s: c * s), (lambda s: c * np.ones_like(np.asarray(s, float)))
    if name == "quadratic":
        eps = float(param)
        return (lambda s: s + eps * s * s), (lambda s: 1.0 + 2.0 * eps * s)
    raise ValueError(f"unknown map descriptor {descriptor!r}")


def reparam_invariance_check(w: WorldFunction, descriptor, kind: str, x_start,
                             x_end, tau_grid: Sequence[float]) -> float:
    """Max chord-aligned deviation between the gradient line of the world
    and that of the monotonically transformed world.

    The transform must have positive derivative over the world-function
    values encountered; this is validated on the solved samples.
    """
    f_map, f_prime = _map_from_descriptor(descriptor)
    wt = world_from_callable(lambda a, b: f_map(w(a, b)), w.dim,
                             label=f"{w.kind}|transformed")
    base = gradient_line_implicit(w, kind, x_start, x_end, tau_grid)

    values = [float(w(p, x_start)) for p in base.points]
    values += [float(w(x_start, p)) for p in base.points]
    derivs = f_prime(np.asarray(values))
    if np.any(derivs <= 0.0):
        raise GeometryError(
            "transform derivative changes sign over the encountered values"
        )
    transformed = gradient_line_implicit(wt, kind, x_start, x_end, tau_grid)
    return curve_deviation(base.points, transformed.points)
