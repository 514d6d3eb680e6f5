"""Scalar products of vectors and multivectors, Gram determinants,
lengths, and the collinearity / parallelism residual family.

A vector here is an ordered pair of points; a multivector of order n is an
ordered tuple of n+1 points.  The scalar product of two order-n multivectors
is the determinant of the n x n matrix of pairwise vector products taken from
the common origins.  All predicates in this module are residual-valued
(signed defect, zero iff the relation holds) so that downstream tube and
membership logic can root-find on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexLengthError,
    DimensionMismatchError,
    OrderMismatchError,
)
from .worlds import WorldFunction, check_kind, kind_pair, parts

#: Relative tolerance for the boolean forms of the residual predicates.
PREDICATE_RTOL = 1e-9


@dataclass(frozen=True)
class Multivector:
    """Ordered tuple of n+1 points (order n >= 1).  Order is significant:
    swapping two points flips the sign of every scalar product."""

    points: np.ndarray  # (n+1, d)

    def __post_init__(self):
        try:
            pts = np.asarray(self.points, dtype=float)
        except ValueError as exc:  # points of different dimensions, say
            raise DimensionMismatchError("multivector points must form an (n+1, d) "
                                         "array of numbers") from exc
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise OrderMismatchError("a multivector needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise DimensionMismatchError("multivector points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def order(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def swapped(self, i: int, k: int) -> "Multivector":
        pts = self.points.copy()
        pts[[i, k]] = pts[[k, i]]
        return Multivector(pts)


def vector_product(w: WorldFunction, p0, p1, q0, q1) -> float:
    """Scalar product of the vectors p0->p1 and q0->q1: the order-1 product
    matrix, read in one world call.

    Antisymmetric under swapping p0<->p1 and under q0<->q1.  A constant
    antisymmetric component of the world cancels in the four-term sum.
    """
    return float(product_matrix(w, Multivector([p0, p1]), Multivector([q0, q1]))[0, 0])


def vector_product_parts(w: WorldFunction, p0, p1, q0, q1) -> tuple[float, float]:
    """(symmetric, antisymmetric) parts of the vector product under exchange
    of the two vectors, parts(P.Q, Q.P), in two world calls; they sum to
    vector_product up to rounding."""
    return parts(vector_product(w, p0, p1, q0, q1), vector_product(w, q0, q1, p0, p1))


def product_matrix(w: WorldFunction, p: Multivector, q: Multivector) -> np.ndarray:
    """n x n matrix M_ik of vector products (p0->p_i . q0->q_k)."""
    if p.order != q.order:
        raise OrderMismatchError(f"orders differ: {p.order} != {q.order}")
    if p.dim != q.dim:
        raise DimensionMismatchError("multivector dimensions differ")
    # one call over the (n+1) x (n+1) grid W[a, b] = w(p_a, q_b); then
    # M_ik = w(p0, q_k) + w(p_i, q0) - w(p0, q0) - w(p_i, q_k)
    grid = w(p.points[:, None, :], q.points[None, :, :])
    return grid[None, 0, 1:] + grid[1:, 0, None] - grid[0, 0] - grid[1:, 1:]


def _det(m: np.ndarray) -> float:
    """Determinant: closed cofactor forms for n <= 3 (exact small cases),
    pivoted LU for larger matrices."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    if n == 2:
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if n == 3:
        return float(
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    return float(np.linalg.det(m))


def multivector_product(w: WorldFunction, p: Multivector, q: Multivector) -> float:
    """Scalar product of two order-n multivectors: det of the product matrix.

    Flips sign under any transposition of two points of either argument;
    vanishes identically when either argument repeats a point.
    """
    return _det(product_matrix(w, p, q))


def gram(w: WorldFunction, p: Multivector) -> float:
    """Squared-length determinant of a point tuple: the scalar product of p
    with itself.

    The value is invariant under every permutation of the n+1 points.  For
    points in a flat symmetric world, sqrt(gram)/n! is the simplex volume.
    """
    return multivector_product(w, p, p)


def _real_length(value, what: str):
    """sqrt of a squared length that must be nonnegative.  Broadcasts, and
    is a float for one value; ComplexLengthError names the first negative."""
    value = np.asarray(value, dtype=float)
    if np.any(value < 0.0):
        raise ComplexLengthError(f"{what} has negative squared length "
                                 f"{float(value[value < 0.0][0])}; real length undefined")
    root = np.sqrt(value)
    return float(root) if root.ndim == 0 else root


def collinearity_residual(w: WorldFunction, kind: str, p: Multivector,
                          q: Multivector) -> float:
    """Signed collinearity defect; zero iff p and q are collinear in the
    requested sense.

    kind 'n' (neutral):  (p.q)(q.p) - |p|^2 |q|^2
    kind 'f' (future):   (p.q)^2    - |p|^2 |q|^2
    kind 'p' (past):     (q.p)^2    - |p|^2 |q|^2

    In a symmetric world the three kinds coincide; for asymmetric worlds the
    'f' residual of (p, q) equals the 'p' residual of (q, p).
    """
    return _collinearity(w, kind, p, q)[0]


def _collinearity(w, kind, p, q):
    """collinearity_residual with the two squared lengths it reads."""
    check_kind(kind)
    if p.order != q.order:
        raise OrderMismatchError(f"orders differ: {p.order} != {q.order}")
    lp2, lq2 = gram(w, p), gram(w, q)
    x, y = kind_pair(kind, multivector_product(w, p, q), multivector_product(w, q, p))
    return x * y - lp2 * lq2, lp2, lq2


def parallelism_residual(w: WorldFunction, kind: str, sense: str,
                         p: Multivector, q: Multivector) -> float:
    """Signed parallelism defect; zero iff the relation holds.

    kind 'f' uses (p.q), kind 'p' uses (q.p); sense 'parallel' subtracts
    |p||q|, sense 'antiparallel' adds it.  Requires both squared lengths to
    be nonnegative (real lengths); raises ComplexLengthError otherwise.
    """
    return _parallelism(w, kind, sense, p, q)[0]


def _parallelism(w, kind, sense, p, q):
    """parallelism_residual with the two lengths it reads."""
    if check_kind(kind) == "n":
        raise ValueError("parallelism has no neutral kind: use 'f' or 'p'")
    if p.order != q.order:
        raise OrderMismatchError(f"orders differ: {p.order} != {q.order}")
    lp2, lq2 = gram(w, p), gram(w, q)
    lp = _real_length(lp2, "first multivector")
    lq = _real_length(lq2, "second multivector")
    prod = multivector_product(w, p, q) if kind == "f" else multivector_product(w, q, p)
    if sense == "parallel":
        return prod - lp * lq, lp, lq
    if sense == "antiparallel":
        return prod + lp * lq, lp, lq
    raise ValueError(f"unknown sense {sense!r}")


def _holds(res: float, a: float, b: float, unit: float) -> bool:
    """|res| within PREDICATE_RTOL of |a b|, a product of res's degree in
    world values, or, when it vanishes, of unit (w.unit to that degree)."""
    scale = abs(a * b)
    return abs(res) <= PREDICATE_RTOL * (scale if scale > 0.0 else unit)


def is_collinear(w: WorldFunction, kind: str, p: Multivector, q: Multivector) -> bool:
    """collinearity_residual against the two squared lengths (_holds)."""
    return _holds(*_collinearity(w, kind, p, q), w.unit ** (2 * p.order))


def is_parallel(w: WorldFunction, kind: str, sense: str, p: Multivector,
                q: Multivector) -> bool:
    """parallelism_residual against the two lengths (_holds)."""
    return _holds(*_parallelism(w, kind, sense, p, q), w.unit ** p.order)
