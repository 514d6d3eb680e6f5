"""Closed-form tube profiles for the anisotropic flat families.

Everything here lives in the reduced dimensionless variables (tau, r, g) of
the axisymmetric reduction: tau is the coordinate along the generating
timelike vector y in units of |y|, r the orthogonal radius in the same
units, and g the dimensionless asymmetry strength (alpha |y| for a unit
anisotropy covector; alpha |b.y| in general).  Chart radii are r * |y|.

These are the golden references the numeric tube sampler is validated
against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def case1_radii(tau: float, g: float) -> list:
    """All nonnegative tube radii of the cubic-anisotropy profile at tau.

    Real nonnegative branches of r = +-(1/(2g)) (-1 +- sqrt(D)) with
    D = 1 + 12 g^2 tau (tau - 1); duplicate +-r values collapse.  Empty when
    D < 0 (the tube has a hole around its center for strong asymmetry).
    """
    if g <= 0.0:
        raise ValueError("g must be positive")
    disc = 1.0 + 12.0 * g * g * tau * (tau - 1.0)
    if disc < 0.0:
        return []
    root = np.sqrt(disc)
    values = []
    for num in (-1.0 + root, -1.0 - root, 1.0 - root, 1.0 + root):
        r = num / (2.0 * g)
        if r >= 0.0:
            values.append(float(r))
    values.sort()
    merged = []
    for r in values:
        if merged and abs(r - merged[-1]) < 1e-12 * (1.0 + r):
            continue
        merged.append(r)
    return merged


def case1_waist(g: float) -> Optional[tuple]:
    """Radii of the two concentric waist spheres at tau = 1/2, or None when
    the profile is empty there (g >= 1/sqrt(3)).

    For small g the inner radius approaches 0.75 g and the outer 1/g.
    """
    if g <= 0.0:
        raise ValueError("g must be positive")
    disc = 1.0 - 3.0 * g * g
    if disc < 0.0:
        return None
    root = np.sqrt(disc)
    # both forms avoid 1 - root, which cancels to 0 for g below about 1e-8
    r1 = 3.0 * g / (2.0 * (root + 1.0))
    r2 = (1.0 + root) / (2.0 * g)
    return float(r1), float(r2)


def case1_asymptotic_slope() -> float:
    """Limit of r/tau along the outer branch for large tau."""
    return float(np.sqrt(3.0))


def case2_asymptotic_radius(alpha: float, beta: float, y_norm: float) -> float:
    """Finite limiting radius of the screened-anisotropy tube in the
    timelike direction (magnitude; the orientation sign is folded in)."""
    if y_norm <= 0.0:
        raise ValueError("y_norm must be positive")
    denom = y_norm * (1.0 + beta * y_norm * y_norm)
    if denom == 0.0:
        raise ZeroDivisionError("screening denominator vanishes")
    return abs(alpha) / abs(denom)


def _minkowski_dot(x, y, metric):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x @ np.asarray(metric, dtype=float) @ y)


def case1_closed_residual(x, y, alpha: float, b, metric=None) -> float:
    """Closed-form residual of the cubic-anisotropy neutral tube with
    skeleton (origin, y):

        (x.y)^2 - x^2 y^2 - alpha^2 [ (x.y)(-2 b.y + 2 b.x)
                                      - (b.x) y^2 + (b.y) x^2 ]^2

    Zero set equals the tube; the sign is opposite to the Gram residual
    (their sum vanishes identically).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal dimension")
    if metric is None:
        metric = np.diag([1.0] + [-1.0] * (x.shape[0] - 1))
    xy = _minkowski_dot(x, y, metric)
    x2 = _minkowski_dot(x, x, metric)
    y2 = _minkowski_dot(y, y, metric)
    bx = float(np.asarray(b, dtype=float) @ x)
    by = float(np.asarray(b, dtype=float) @ y)
    bracket = xy * (-2.0 * by + 2.0 * bx) - bx * y2 + by * x2
    return xy * xy - x2 * y2 - alpha * alpha * bracket * bracket


def eta_case1_closed(x, xp, y, alpha: float, b, metric=None,
                     screened_beta: Optional[float] = None) -> float:
    """Closed-form triangle antisymmetry of the anisotropic families.

    Cyclic sum alpha * sum b.xi f(xi^2) over the three edge separations of
    the triple (x, xp, y); the constant parts of the anisotropy cancel.
    f is the identity for the cubic family, 1/(1 + beta s) when a screening
    constant is given.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    y = np.asarray(y, dtype=float)
    if metric is None:
        metric = np.diag([1.0] + [-1.0] * (x.shape[0] - 1))
    b = np.asarray(b, dtype=float)

    def f(s):
        if screened_beta is None:
            return s
        return 1.0 / (1.0 + screened_beta * s)

    total = 0.0
    for u, v in ((x, xp), (xp, y), (y, x)):
        xi = u - v
        total += float(b @ xi) * f(_minkowski_dot(xi, xi, metric))
    return alpha * total
