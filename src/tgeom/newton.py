"""The damped Newton iteration of the chain, gradient-line and seed solves.

A Jacobian only sets the search direction; the residual decides when the
root is found.  A Jacobian with relative error delta keeps the contraction
near delta per step (Dennis & Schnabel, Numerical Methods for Unconstrained
Optimization and Nonlinear Equations, 1983, sec. 5.4), so the gradient-line
and chain solves take their Jacobians from the 2-point stencils of
fd (second_order=True) and their residuals from the 4-point ones, and the
condition-IV solves of degeneracy take theirs from the 2-point stencil of
the coordinate map, whose residual needs no stencil.

MAX_HALVINGS bounds the halvings of a whole solve, not of one step: a solve
that wanders where no step length helps for long, as near a pole, stops
after MAX_HALVINGS rejected trials in all, not after that many per step.
"""

from typing import NamedTuple

import numpy as np

from .errors import SolverError

MAX_STEPS = 60
MAX_HALVINGS = 40


class NewtonRecord(NamedTuple):
    """Final residual norm, Newton steps computed, trial steps rejected
    (each halves the step), and whether the solve stopped because its
    budget of MAX_HALVINGS halvings ran out before a step lowered the
    norm."""

    residual_norm: float
    iterations: int
    backtracks: int
    stalled: bool


def newton(residual, jacobian, z0, tol):
    """Full Newton steps from z0, each halved until the residual norm falls.

    Stops at norm <= tol, after MAX_STEPS steps, or when the solve's
    MAX_HALVINGS halvings, counted over all its steps, are spent before a
    step lowers the norm.  Returns (z, NewtonRecord); callers judge success.
    A singular Jacobian raises SolverError with the record as its detail.
    """
    z = np.array(z0, dtype=float)
    r = residual(z)
    norm = float(np.linalg.norm(r))
    iterations = backtracks = 0
    while not norm <= tol and iterations < MAX_STEPS:  # a NaN norm steps until it stalls
        try:
            step = np.linalg.solve(jacobian(z), -r)
        except np.linalg.LinAlgError as exc:
            record = NewtonRecord(norm, iterations, backtracks, False)
            raise SolverError("singular Jacobian", record._asdict()) from exc
        iterations += 1
        lam = 1.0
        while True:
            z_trial = z + lam * step
            r_trial = residual(z_trial)
            n_trial = float(np.linalg.norm(r_trial))
            if n_trial < norm:
                z, r, norm = z_trial, r_trial, n_trial
                break
            lam *= 0.5
            backtracks += 1
            if backtracks == MAX_HALVINGS:
                return z, NewtonRecord(norm, iterations, backtracks, True)
    return z, NewtonRecord(norm, iterations, backtracks, False)
