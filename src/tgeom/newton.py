"""The damped Newton iteration of the chain, gradient-line and seed solves.

A Jacobian only sets the search direction; the residual decides when the
root is found.  A Jacobian with relative error delta keeps the contraction
near delta per step (Dennis & Schnabel, Numerical Methods for Unconstrained
Optimization and Nonlinear Equations, 1983, sec. 5.4), so the gradient-line
and chain solves take their Jacobians from the second_order stencils of fd
(the 2-point rule, and the seven-point rule for a mixed second
derivative: 49 points for a (1, 1) Jacobian and 21 for a (0, 2) Hessian
at d = 4) and their residuals from the 4-point ones, and the
condition-IV solves of degeneracy take theirs from the 2-point stencil of
the coordinate map, whose residual needs no stencil.

The same reading lets a solve keep its Jacobian current without a stencil:
with broyden set, each accepted step updates it by Broyden's rank-one
secant update from the residuals the solve already evaluated (Broyden,
Math. Comp. 19, 1965; Dennis & Schnabel, 1983, ch. 8).  An updated
Jacobian is trusted only in the superlinear regime that justifies it: a
full step from one that does not cut the norm by BROYDEN_CONTRACTION is
dropped, unhalved, for a fresh stencil Jacobian at the same point.  Where
a solve wanders far from its start, that keeps it on the path of the
stencil-Jacobian solve; steps that only lowered the norm let such solves
on rough worlds settle on another root.  Only the implicit gradient-line
solves set broyden.

A solve without broyden keeps a stencil Jacobian for one more step, the
chord (Shamanskii) step, where that step is its last: when an accepted
step from a fresh stencil Jacobian takes the norm from n_old to n_new with
n_new (n_new / n_old) <= tol, the contraction it showed predicts that the
next step from the same Jacobian reaches tol (Dennis & Schnabel, 1983,
sec. 5.4 and ch. 6; Kelley, Iterative Methods for Linear and Nonlinear
Equations, 1995, sec. 5.4).  That step is held to BROYDEN_CONTRACTION as
an updated one is, and is dropped for a fresh Jacobian when it misses.
The chain steps, advance_seed and condition IV solve this way; refresh
lets a solve bring the parts of a kept Jacobian that cost no stencil,
such as the chain's constraint border, to the current point.

MAX_HALVINGS bounds the halvings of a whole solve, not of one step: a solve
that wanders where no step length helps for long, as near a pole, stops
after MAX_HALVINGS rejected trials in all, not after that many per step.
"""

from typing import NamedTuple

import numpy as np

from .errors import SolverError

MAX_STEPS = 60
MAX_HALVINGS = 40
# a full step from an updated or a kept Jacobian is accepted only when it
# cuts the residual norm by this factor (module docstring)
BROYDEN_CONTRACTION = 0.1


class NewtonRecord(NamedTuple):
    """Final residual norm, Newton steps computed, stencil Jacobians taken
    (fewer than the steps where a step reuses one), trial steps rejected
    (each halves the step), and whether the solve stopped because its
    budget of MAX_HALVINGS halvings ran out before a step lowered the
    norm."""

    residual_norm: float
    iterations: int
    jacobians: int
    backtracks: int
    stalled: bool


def newton(residual, jacobian, z0, tol, refresh=None, *, broyden=False):
    """Full Newton steps from z0, each halved until the residual norm falls.

    Stops at norm <= tol, after MAX_STEPS steps, or when the solve's
    MAX_HALVINGS halvings, counted over all its steps, are spent before a
    step lowers the norm.  With broyden, the first step and each step after
    a failed update call jacobian; the others use the Broyden update
    J + (y - J s) s^T / (s^T s) of the last Jacobian by the accepted step s
    and its change y in the residual.  Without it, each step calls
    jacobian, except that an accepted step from a fresh Jacobian taking the
    norm from n_old to n_new keeps that Jacobian for the next step when
    n_new (n_new / n_old) <= tol; refresh(J, z), if given, then returns the
    kept J brought to z.  A step from an updated or kept Jacobian that does
    not cut the norm by BROYDEN_CONTRACTION counts as a step but not as a
    halving, and is taken again from a fresh Jacobian, as is one whose
    updated or kept Jacobian is singular.  Returns (z, NewtonRecord);
    callers judge success.  A singular stencil Jacobian raises SolverError
    with the record as its detail.
    """
    z = np.array(z0, dtype=float)
    r = residual(z)
    norm = float(np.linalg.norm(r))
    iterations = jacobians = backtracks = 0
    J = None  # a Jacobian kept for the next step: a Broyden update or a chord reuse
    while not norm <= tol and iterations < MAX_STEPS:  # a NaN norm steps until it stalls
        fresh = J is None
        if fresh:
            J = jacobian(z)
        elif refresh is not None:
            J = refresh(J, z)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            if not fresh:
                J = None
                continue
            record = NewtonRecord(norm, iterations, jacobians, backtracks, False)
            raise SolverError("singular Jacobian", record._asdict()) from exc
        iterations += 1
        jacobians += fresh
        lam = 1.0
        while True:
            z_trial = z + lam * step
            r_trial = residual(z_trial)
            n_trial = float(np.linalg.norm(r_trial))
            if n_trial < (norm if fresh else BROYDEN_CONTRACTION * norm):
                if broyden:
                    s = z_trial - z
                    J = J + np.outer(r_trial - r - J @ s, s / (s @ s))
                elif not (fresh and n_trial * (n_trial / norm) <= tol):
                    J = None
                z, r, norm = z_trial, r_trial, n_trial
                break
            if not fresh:
                J = None
                break
            lam *= 0.5
            backtracks += 1
            if backtracks == MAX_HALVINGS:
                return z, NewtonRecord(norm, iterations, jacobians, backtracks, True)
    return z, NewtonRecord(norm, iterations, jacobians, backtracks, False)
