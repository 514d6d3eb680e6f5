"""Point-set geometric objects built from the world function.

An order-n tube is the zero set of the order-(n+1) Gram determinant grown
from an n+1 point skeleton.  First-order tubes come in three kinds (neutral,
future, past), distinct only when the world has an antisymmetric part; they
factor into four first-degree pieces whose zero sets cut the tube into
segments.  This module also hosts the axisymmetric tube sampler used to
reproduce closed-form tube profiles, and broken world tubes (equal-length
chains with extremal continuation, built from world-function values alone).
A kind's lengths and derivatives read its k(a, b) (WorldFunction.of_kind,
fd.kind_tensor); a chain step holds 2 k(mid, next) at mu^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fd
from .errors import (
    ComplexLengthError,
    DegenerateSkeletonError,
    DimensionMismatchError,
    GeometryError,
    SolverError,
)
from .newton import newton
from .products import Multivector, _real_length, gram
from .worlds import WorldFunction, check_kind, kind_pair, parts, unit_of

#: alpha coefficient of the factorization per kind
_ALPHA_Q = {"f": 1.0, "p": 1.0, "n": -1.0}

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TubeSpec:
    """Skeleton points plus tube kind (kind only matters for order 1)."""

    skeleton: Multivector
    kind: str = "n"

    def __post_init__(self):
        check_kind(self.kind)


def _separation_scale(w: WorldFunction, points) -> float:
    """max(w.unit, |2 sym(pi, pk)|) over the distinct pairs of the points."""
    pts = np.asarray(points, dtype=float)
    i, k = np.triu_indices(len(pts), 1)
    return max([w.unit, *np.abs(2.0 * w.sym(pts[i], pts[k])).tolist()])


def membership_tolerance(w: WorldFunction, points: np.ndarray) -> float:
    """Residual tolerance for tube membership: 1e-9 x (characteristic
    scale)^4, scale = max pairwise root-mean separation.  The Gram residual
    of a first-order tube is degree four in distances."""
    return 1e-9 * float(np.sqrt(_separation_scale(w, points))) ** 4


def _skeleton_guard(w: WorldFunction, skeleton: Multivector):
    f_n = gram(w, skeleton)
    if abs(f_n) <= 1e-12 * _separation_scale(w, skeleton.points) ** skeleton.order:
        raise DegenerateSkeletonError(
            f"skeleton has vanishing squared length ({f_n!r})"
        )
    return f_n


def tube_residual(w: WorldFunction, spec: TubeSpec, point) -> float:
    """Residual of the probe point, zero iff it lies on the tube: the
    first-order residual of the kind for a two-point skeleton, else the Gram
    residual of the skeleton extended by the point.  Skeleton points give 0."""
    _skeleton_guard(w, spec.skeleton)
    point = np.asarray(point, dtype=float)
    if point.shape != (w.dim,):
        raise DimensionMismatchError("probe point has wrong dimension")
    if spec.skeleton.order == 1:
        return first_order_residual(w, spec.kind, *spec.skeleton.points, point)
    extended = Multivector(np.vstack([spec.skeleton.points, point[None, :]]))
    return gram(w, extended)


def _triple_worlds(w: WorldFunction, p0, p1, p2):
    """The six ordered world values wij = w(pi, pj) of a point triple,
    broadcast over leading axes: (w01, w10, w02, w20, w12, w21)."""
    return w(p0, p1), w(p1, p0), w(p0, p2), w(p2, p0), w(p1, p2), w(p2, p1)


def _first_order(kind: str, w01, w10, w02, w20, w12, w21, roundoff=False):
    """First-order tube residual of the kind from the six ordered world
    values of a triple, broadcast over leading axes.

    With roundoff, also its round-off bound in units of eps.  The bound
    follows the cancellation of the world values inside each factor (w02
    against w20, w12 against w21), not only that of the final products.  A
    bound that overflows is infinite, which leaves the residual without a
    sign.
    """
    u2, v2 = w01 + w10, w02 + w20
    uv, vu = w10 + w02 - w12, w20 + w01 - w21
    x, y = kind_pair(kind, uv, vu)
    residual = u2 * v2 - x * y
    if not roundoff:
        return residual
    a01, a10, a02, a20 = np.abs(w01), np.abs(w10), np.abs(w02), np.abs(w20)
    ax, ay = kind_pair(kind, a10 + a02 + np.abs(w12), a20 + a01 + np.abs(w21))

    def bound(x, ax, y, ay):
        # the last term keeps the bound when x or y is itself lost to round-off
        return ax * np.abs(y) + np.abs(x) * ay + _EPS * ax * ay

    with np.errstate(over="ignore"):
        return residual, bound(u2, a01 + a10, v2, a02 + a20) + bound(x, ax, y, ay)


def _eta_q(kind: str, g10: float, g02: float, eta_f: float) -> float:
    if kind == "f":
        return eta_f
    if kind == "p":
        return -eta_f
    prod = g10 * g02
    if prod < 0.0:
        raise ComplexLengthError("neutral eta needs a nonnegative separation product")
    return eta_f**2 / (np.sqrt(4.0 * prod + eta_f**2) + 2.0 * np.sqrt(prod))


def _factor_terms(w: WorldFunction, kind: str, p0, p1, p2):
    """(|p0p2|, |p1p0|, g12, eta) of a point triple: the two real basic
    separations, the symmetric part g12 and the triangle antisymmetry eta of
    the kind, from one read of the triple."""
    check_kind(kind)
    w01, w10, w02, w20, w12, w21 = _triple_worlds(w, p0, p1, p2)
    (g10, a10), (g02, a02), (g12, a21) = parts(w10, w01), parts(w02, w20), parts(w21, w12)
    g02, g10 = float(g02), float(g10)
    eta = _eta_q(kind, g10, g02, float(a10 + a02 + a21))
    return (_real_length(g02, "separation p0-p2"), _real_length(g10, "separation p1-p0"),
            float(g12), eta)


def first_order_factors(w: WorldFunction, kind: str, p0, p1, p2):
    """The four first-degree factors of the first-order tube residual and
    the triangle antisymmetry eta of the kind.

    minus the product of the four factors equals the direct Gram residual of
    the kind.  Raises ComplexLengthError on any negative radicand.
    """
    r02, r10, g12, eta = _factor_terms(w, kind, p0, p1, p2)
    ra = _real_length(g12 - eta, "kind radicand")
    rb = _real_length(g12 - _ALPHA_Q[kind] * eta, "kind radicand")
    f0 = r02 + r10 + ra
    f1 = r02 - r10 + rb
    f2 = r02 + r10 - ra
    f3 = r02 - r10 - rb
    return f0, f1, f2, f3, float(eta)


def first_order_residual(w: WorldFunction, kind: str, p0, p1, p2) -> float:
    """Direct first-order tube residual of the given kind (no square roots,
    valid on every branch)."""
    check_kind(kind)
    return float(_first_order(kind, *_triple_worlds(w, p0, p1, p2)))


def segment_residual(w: WorldFunction, kind: str, p0, p1, p2) -> float:
    """Residual of the tube segment between the two basic points: the factor
    sqrt(g02) - sqrt(g10) + sqrt(g12 - alpha_q eta_q); zero iff p2 lies on
    the segment."""
    r02, r10, g12, eta = _factor_terms(w, kind, p0, p1, p2)
    return r02 - r10 + _real_length(g12 - _ALPHA_Q[kind] * eta, "kind radicand")


def sphere_residual(w: WorldFunction, p0, p1, point) -> float:
    """Envelope residual of the sphere through p1 centered at p0: distance
    from the center minus the radius.  Uses only symmetrized separations,
    so asymmetry of the world never enters."""
    a = float(w(p0, point) + w(point, p0))
    b = float(w(p0, p1) + w(p1, p0))
    return _real_length(a, "center separation") - _real_length(b, "radius separation")


def section_filter(w: WorldFunction, spec: TubeSpec, on_point, candidates,
                   tol: float) -> list:
    """Points among the candidates that share every skeleton separation with
    the given tube point (the tube section through it).

    The base point must itself lie on the tube within tol.
    """
    base_res = tube_residual(w, spec, on_point)
    scale_tol = max(tol, membership_tolerance(w, spec.skeleton.points))
    if abs(base_res) > scale_tol:
        raise GeometryError(
            f"section base point is off the tube (residual {base_res!r})"
        )
    cands = [np.asarray(cand, dtype=float) for cand in candidates]
    if any(cand.shape != (w.dim,) for cand in cands):
        raise DimensionMismatchError("candidate point has wrong dimension")
    skel = spec.skeleton.points
    base_vals = w(skel, np.asarray(on_point, dtype=float))
    vals = w(skel, np.reshape(cands, (-1, 1, w.dim)))
    keep = np.max(np.abs(vals - base_vals), axis=1) <= tol
    return [cand for cand, kept in zip(cands, keep) if kept]


# ---------------------------------------------------------------------------
# Axisymmetric sampling of first-order tubes
# ---------------------------------------------------------------------------


def _metric_of(w: WorldFunction) -> np.ndarray:
    if w.spec is None:
        raise GeometryError("sampler needs a world built from a WorldSpec")
    return w.spec.metric


def spacelike_unit_normal(w: WorldFunction, y) -> np.ndarray:
    """Deterministic unit vector orthogonal to y in the world metric:
    Gram-Schmidt against y starting from the first coordinate axis that is
    not parallel to y, with |g(e, e)| above 1e-12 w.unit, normalized to 1."""
    g = _metric_of(w)
    y = np.asarray(y, dtype=float)
    y2 = float(y @ g @ y)
    if y2 == 0.0:
        raise GeometryError("cannot build a normal to a null vector")
    for axis in range(w.dim):
        e = np.zeros(w.dim)
        e[axis] = 1.0
        v = e - (float(e @ g @ y) / y2) * y
        norm2 = float(v @ g @ v)
        if np.max(np.abs(v)) > 1e-8 and abs(norm2) > 1e-12 * w.unit:
            return v / np.sqrt(abs(norm2))
    raise GeometryError("no coordinate axis is independent of y")


#: taus whose probe grids share one world call; bounds the sampler's memory
_TAU_BLOCK = 64

#: probe radii per tau of the grid (r = 0 and a geometric grid out to rmax):
#: enough for the root pairs either side of a screened world's double-pole
#: spike, about 1% wide at xi^2 = -1/beta, and for those a coarser grid
#: loses between two probes with no probe extremum on a strongly cubic world
_PROBES = 256

#: iteration cap of the bracket solver and the extremum search (the usual
#: brentq default)
_BRENT_MAXITER = 100

#: a residual within _ROUNDOFF eps of its round-off bound (floored at 1 unit) has no sign
_ROUNDOFF = 16.0

#: roots closer than _FOLD_TOL (1 + r) are one fold root, and an extremum
#: search ends once its interval is that short
_FOLD_TOL = 1e-8

#: a root is reported only where the residual is signed _RESOLUTION (1 + r)
#: on both sides of it
_RESOLUTION = 1e-6

_GOLDEN = (3.0 - 5.0**0.5) / 2


def _brent(f, xa, xb, fa, fb, xtol, rtol):
    """Brent's method (Brent 1973, ch. 4) on many independent brackets at once.

    Follows the standard brentq routine step for step, so every bracket ends
    on the root brentq returns for it, to the last bit; but values are read
    in each bracket's unit (unit_of its ends), so that the interpolation's
    products of three values cannot overflow.  f(index, x) evaluates the
    functions of brackets `index` at x; fa and fb are the end values, of
    strictly opposite signs.  Returns the roots and f there.
    """
    n = len(xa)
    root, froot, index = np.empty(n), np.empty(n), np.arange(n)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), (n,))
    unit = unit_of(np.maximum(np.abs(fa), np.abs(fb)))
    xpre, xcur, fpre, fcur = (np.array(v, dtype=float) for v in (xa, xb, fa / unit, fb / unit))
    xblk, fblk, spre, scur = np.zeros((4, n))
    for iteration in range(_BRENT_MAXITER):
        flip = np.sign(fpre) * np.sign(fcur) < 0
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, [xcur, xblk, xcur], [xpre, xcur, xblk])
        fpre, fcur, fblk = np.where(swap, [fcur, fblk, fcur], [fpre, fcur, fblk])
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[index[done]], froot[index[done]] = xcur[done], fcur[done] * unit[index[done]]
        if done.all():
            return root, froot
        index, xtol, delta, sbis, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
            v[~done] for v in (index, xtol, delta, sbis, xpre, xcur, xblk,
                               fpre, fcur, fblk, spre, scur))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(index, xcur) / unit[index]
        if np.any(np.isnan(fcur)):
            raise SolverError("NaN residual inside a root bracket",
                              {"brackets": n, "iteration": iteration})
    raise SolverError(f"root bracket did not converge in {_BRENT_MAXITER} iterations",
                      {"brackets": n, "iteration": _BRENT_MAXITER})


def _brent_min(f, sign, a, x, b, fa, fx, fb):
    """Brent's minimiser (Brent 1973, ch. 5) of sign f on many intervals at
    once, laid out like _brent.

    Each interval starts from a < x < b with 0 < sign f(x) < sign f(a),
    sign f(b), so the parabola through the three takes the first step.  It
    stops at the first point x where sign f is negative, with a and b the
    nearest points either side where sign f is positive: a root lies on
    either side of x.  Otherwise it stops at its minimum x once the interval
    is shorter than _FOLD_TOL (1 + x) around it.  f(index, x) is as for
    _brent.  Returns a, x, b, f(a), f(x), f(b) of every interval at its stop.
    """
    n = len(x)
    out, index = np.empty((6, n)), np.arange(n)
    a, x, b = (np.array(z, dtype=float) for z in (a, x, b))
    fa, fx, fb = (sign * np.asarray(z, dtype=float) for z in (fa, fx, fb))
    low = fa < fb
    w, fw = np.where(low, a, b), np.where(low, fa, fb)
    v, fv = np.where(low, b, a), np.where(low, fb, fa)
    d = e = b - a
    for iteration in range(_BRENT_MAXITER):
        mid = (a + b) / 2
        tol = _FOLD_TOL / 4 * (1.0 + np.abs(x))
        done = (fx < 0) | (np.abs(x - mid) <= 2 * tol - (b - a) / 2)
        s = sign[done]
        out[:, index[done]] = a[done], x[done], b[done], s * fa[done], s * fx[done], s * fb[done]
        if done.all():
            return out
        index, sign, a, x, b, w, v, fa, fx, fb, fw, fv, d, e, mid, tol = (
            z[~done] for z in (index, sign, a, x, b, w, v, fa, fx, fb, fw, fv, d, e, mid, tol))
        # parabola through x, w and v, taken when it falls inside (a, b) and
        # moves less than half the step before last; else a golden section
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2 * (q - r)
        p, q = np.where(q > 0, -p, p), np.abs(q)
        parab = ((np.abs(e) > tol) & (np.abs(p) < np.abs(q * e / 2))
                 & (p > q * (a - x)) & (p < q * (b - x)))
        golden = np.where(x < mid, b, a) - x
        with np.errstate(divide="ignore", invalid="ignore"):
            e, d = np.where(parab, d, golden), np.where(parab, p / q, _GOLDEN * golden)
        edge = parab & ((x + d - a < 2 * tol) | (b - x - d < 2 * tol))
        d = np.where(edge, np.where(x < mid, tol, -tol), d)
        u = x + np.where(np.abs(d) >= tol, d, np.where(d > 0, tol, -tol))
        fu = sign * f(index, u)
        if np.any(np.isnan(fu)):
            raise SolverError("NaN residual inside an extremum search",
                              {"intervals": n, "iteration": iteration})
        better, below = fu <= fx, u < x
        end, fend = np.where(better, x, u), np.where(better, fx, fu)
        a, fa = np.where(better != below, end, a), np.where(better != below, fend, fa)
        b, fb = np.where(better == below, end, b), np.where(better == below, fend, fb)
        shift = better | (fu <= fw) | (w == x)
        to_v = ~shift & ((fu <= fv) | (v == x) | (v == w))
        v, fv = (np.where(shift, w, np.where(to_v, u, v)),
                 np.where(shift, fw, np.where(to_v, fu, fv)))
        w, fw = np.where(shift, end, w), np.where(shift, fend, fw)
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
    raise SolverError(f"extremum search did not converge in {_BRENT_MAXITER} iterations",
                      {"intervals": n, "iteration": _BRENT_MAXITER})


def _grid_brackets(signed_residual, residual, taus, rmaxs, block_rows):
    """Roots on the axis, brackets and fold minima of the taus of a block's
    rows from a probe grid.

    r = 0 and a geometric grid of _PROBES - 1 radii out to rmax; sign changes
    between signed probes bracket roots, and Brent's minimiser searches the
    intervals where a root pair may hide between probes.  signed_residual(tau,
    r) is the residual, whether it has a sign and its round-off floor;
    residual(rows, r) the residual at the block's rows.  Returns, with rows
    of the block, the rows with a root at r = 0, the brackets (rows, a, b,
    f(a), f(b)), which of them have two signed ends and the minima within
    round-off (r, rows): the inputs of _settle.
    """
    taus, rmaxs = taus[block_rows], rmaxs[block_rows]
    grid = np.concatenate([np.zeros((len(taus), 1)),
                           np.geomspace(_RESOLUTION, rmaxs, _PROBES - 1, axis=-1)], axis=1)
    with np.errstate(all="ignore"):  # overflow far out is reported below
        vals, signed, _ = signed_residual(taus[:, None], grid)
    finite = np.all(np.isfinite(vals), axis=1)
    if not finite.all():
        raise GeometryError(f"tube residual is not finite at tau {float(taus[~finite][0])!r}")
    # a residual within round-off of the world values it is built from has
    # no sign.  A tau is lost when its last probe, at rmax, has none: nothing
    # bounds what lies beyond the last signed probe
    lost = ~signed[:, -1]
    if lost.any():
        raise GeometryError(f"tube residual is lost to round-off at tau {float(taus[lost][0])!r}")
    # r = 0 without a sign is a root when the probe at _RESOLUTION has one
    # (the rule for a fold below, on the axis); when it has none, the run of
    # unsigned probes from the axis out may hold no root, one or a pair
    lost = ~signed[:, 0] & ~signed[:, 1]
    if lost.any():
        raise GeometryError(f"tube root is lost to round-off at tau {float(taus[lost][0])!r}")
    # consecutive signed probes of opposite signs bracket a root, whatever
    # unsigned probes lie between them
    srow, scol = np.nonzero(signed)
    adjacent = srow[1:] == srow[:-1]
    rows, i, j = srow[:-1][adjacent], scol[:-1][adjacent], scol[1:][adjacent]
    # signs are compared, not the values multiplied: a product may overflow
    sgn = np.sign(vals)
    flip = sgn[rows, i] * sgn[rows, j] < 0
    band = ~flip & (j > i + 1)
    # a root pair may hide around a signed probe whose |residual| is below
    # both its neighbours of its sign, or among unsigned probes between two
    # signed ones of the same sign: minimise the signed residual over each
    # such interval for a crossing (two brackets more), a fold (a minimum
    # within round-off) or nothing
    mid, smid = vals[:, 1:-1], sgn[:, 1:-1]
    ext, k = np.nonzero(signed[:, 1:-1] & (smid * sgn[:, :-2] > 0) & (smid * sgn[:, 2:] > 0)
                        & (np.abs(mid) < np.abs(vals[:, :-2]))
                        & (np.abs(mid) < np.abs(vals[:, 2:])))
    ends = (np.concatenate([k, i[band]]), np.concatenate([k + 1, i[band] + 1]),
            np.concatenate([k + 2, j[band]]))
    ext = np.concatenate([ext, rows[band]])
    sign = sgn[ext, ends[0]]
    m_a, m_x, m_b, mf_a, mf_x, mf_b = _brent_min(
        lambda index, z: residual(block_rows[ext[index]], z), sign,
        *(grid[ext, c] for c in ends), *(vals[ext, c] for c in ends))
    cross = sign * mf_x < 0
    rows, i, j = rows[flip], i[flip], j[flip]
    a = np.concatenate([grid[rows, i], m_a[cross], m_x[cross]])
    b = np.concatenate([grid[rows, j], m_x[cross], m_b[cross]])
    f_a = np.concatenate([vals[rows, i], mf_a[cross], mf_x[cross]])
    f_b = np.concatenate([vals[rows, j], mf_x[cross], mf_b[cross]])
    signed_ends = np.arange(len(a)) < len(rows)
    rows = np.concatenate([rows, ext[cross], ext[cross]])
    return (block_rows[~signed[:, 0]], block_rows[rows], a, b, f_a, f_b, signed_ends,
            m_x[~cross], block_rows[ext[~cross]])


@functools.lru_cache(maxsize=None)
def _chebyshev_nodes(count: int):
    """The count Chebyshev points of the second kind on [-1, 1], ascending,
    and the matrix that takes values there to Chebyshev coefficients."""
    n = count - 1
    k = np.arange(count)
    nodes = np.sin(np.pi * (2 * k - n) / (2 * n))  # -cos(pi k / n), symmetric to the bit
    to_coef = np.cos(np.outer(k, np.pi * (n - k) / n)) * (2.0 / n)
    to_coef[:, [0, n]] /= 2
    to_coef[[0, n], :] /= 2
    return nodes, to_coef


def _colleague_roots(coef):
    """All roots of each row's Chebyshev series, padded with NaN: the
    eigenvalues of its colleague matrix (Good 1961; Boyd, SIAM Review 55,
    2013), with the series cut after its last nonzero coefficient."""
    rows, count = coef.shape
    nonzero = coef != 0
    degree = np.where(nonzero.any(axis=1), count - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    roots = np.full((rows, count - 1), np.nan, dtype=complex)
    for m in range(1, count):
        at = np.flatnonzero(degree == m)
        if not len(at):
            continue
        # x T_0 = T_1 and x T_j = (T_(j-1) + T_(j+1)) / 2, with T_m taken
        # from the series: x times (T_0 .. T_(m-1)) is mat times them
        c = coef[at]
        mat = np.zeros((len(at), m, m))
        if m > 1:
            mat[:, 0, 1] = 1.0
            j = np.arange(1, m - 1)
            mat[:, j, j - 1] = mat[:, j, j + 1] = 0.5
            mat[:, m - 1, m - 2] = 0.5
        mat[:, m - 1, :] -= c[:, :m] / ((1.0 if m == 1 else 2.0) * c[:, m:m + 1])
        roots[at, :m] = np.linalg.eigvals(mat)
    return roots


def _proxy_roots(signed_residual, residual, taus, y2, rmaxs, degree: int, even: bool):
    """Roots of a block of taus from a Chebyshev proxy of the residual,
    which is a polynomial in r of the given degree along a section (even in
    r when even is set).

    The residual at degree + 3 Chebyshev points on [0, rmax] gives the
    proxy; its top two coefficients must vanish to round-off of the node
    values.  The colleague matrix gives its roots, each with the radius by
    which round-off of the node values can move it; overlapping radii make
    one cluster.  A lone real root inside (_RESOLUTION, rmax) is bracketed
    by its radius, and at least _RESOLUTION (1 + r), either side, and the
    residual is read at its estimate with the bracket's ends.  The
    estimate is the root where that read meets _tolerance, else Brent's
    method solves the half of the bracket its sign picks (_from_estimates);
    _polish then takes one step on the proxy's slope d/dr.  On an even
    residual, the pair of roots about r = 0 is the axis root when the
    residual there has no sign.  Returns, for the taus it settles, the rows
    with a root at r = 0 and the (rows, radii) of the other roots, and the
    rows of the rest, for the grid: a fit that fails, a bracket without two
    signed ends of opposite signs, or any cluster or root the proxy cannot
    settle (one that touches the axis or rmax, a near-double or near-real
    pair).
    """
    # numpy.polynomial loads only for worlds that reach the proxy
    from numpy.polynomial.chebyshev import chebder, chebval

    nodes, to_coef = _chebyshev_nodes(degree + 3)
    half = rmaxs[:, None] / 2
    with np.errstate(all="ignore"):  # overflow far out goes to the grid
        vals, signed, floor = signed_residual(taus[:, None], half * (1.0 + nodes))
        noise = np.max(floor, axis=1)
        # summed node by node, not by a matmul whose rounding may follow the
        # block's size: a tau's profile does not depend on its block
        coef = sum(vals[:, k, None] * to_coef[:, k] for k in range(len(nodes)))
    fallback = ~(np.all(np.isfinite(vals), axis=1) & np.isfinite(noise) & signed[:, -1])
    # node values off by at most noise give coefficients off by at most 2
    # noise: the top two must be within that, and the trailing ones whose
    # magnitudes sum to no more are cut, which moves the proxy by 2 noise
    fallback |= np.any(np.abs(coef[:, -2:]) > 2 * noise[:, None], axis=1)
    tail = np.cumsum(np.abs(coef[:, ::-1]), axis=1)[:, ::-1]
    coef[fallback[:, None] | (tail <= 2 * noise[:, None])] = 0.0
    x = _colleague_roots(coef)
    # the proxy is within 5 noise of the true residual on [0, rmax] (the
    # Lebesgue constant, below 3 for at most 9 nodes, and the cut tail), and
    # a root within the spread of 8 noise over the proxy's slope
    with np.errstate(all="ignore"):
        slope = chebval(x, chebder(coef, axis=1).T[:, :, None], tensor=False)
        spread = half * 8 * noise[:, None] / np.abs(slope)
    r, rx = half * (1.0 + x.real), half * np.abs(x + 1.0)
    near = np.abs(x[:, :, None] - x[:, None, :]) * half[:, :, None] <= (
        spread[:, :, None] + spread[:, None, :])
    for _ in range(x.shape[1]):  # overlapping spreads make one cluster
        near = near | np.any(near[:, :, :, None] & near[:, None, :, :], axis=2)
    size = np.sum(near, axis=2)
    # a root whose spread reaches [0, rmax] on the real line may be real; so
    # may every root of its cluster
    reach = ((np.abs(x.imag) * half <= spread) & (r + spread >= 0.0)
             & (r - spread <= rmaxs[:, None]))
    counted = np.any(near & reach[:, None, :], axis=2)
    simple = counted & (size == 1) & (r - spread > _RESOLUTION) & (r + spread < rmaxs[:, None])
    # on an even residual a cluster of two about r = 0 is the root pair +-r0
    # of the square: one root of the section, on the axis within the spread
    axis_pair = np.any(near & (rx <= spread)[:, None, :], axis=2) & (size == 2) & even
    axis = ~signed[:, 0]
    fallback |= np.any(counted & ~simple & ~axis_pair, axis=1)
    fallback |= axis != np.any(axis_pair, axis=1)

    # each lone root is bracketed by its spread, and at least _RESOLUTION
    # (1 + r), and read at its estimate in the same call as the ends
    rows, col = np.nonzero(simple & ~fallback[:, None])
    root = r[rows, col]
    dr = np.maximum(spread[rows, col], _RESOLUTION * (1.0 + root))
    a, b = root - dr, root + dr
    with np.errstate(all="ignore"):
        f_abr, s_abr, _ = signed_residual(taus[np.tile(rows, 3)], np.concatenate([a, b, root]))
    f_a, f_b, f_r = np.split(f_abr, 3)
    s_a, s_b, _ = np.split(s_abr, 3)
    bad = ((a <= 0.0) | ~(b < rmaxs[rows]) | ~(s_a & s_b) | ~(np.sign(f_a) * np.sign(f_b) < 0))
    # the brackets of one tau must be disjoint: two that overlap may both
    # settle on one root and leave the other unfound
    order = np.lexsort((a, rows))
    overlap = (rows[order][1:] == rows[order][:-1]) & (a[order][1:] <= b[order][:-1])
    bad[order[1:][overlap]] = bad[order[:-1][overlap]] = True
    fallback[rows[bad]] = True
    keep = ~fallback[rows]
    rows, a, b, f_a, f_b, root, f_r = (v[keep] for v in (rows, a, b, f_a, f_b, root, f_r))
    root, f_r = _from_estimates(residual, taus, y2, rows, a, b, f_a, f_b, root, f_r)
    d_dr = slope[rows, col[keep]].real / half[rows, 0]
    root, _ = _polish(residual, taus, y2, rows, a, b, root, f_r, d_dr)
    return (np.flatnonzero(axis & ~fallback), rows, root), np.flatnonzero(fallback)


def _tolerance(y2, tau, r):
    """The residual every tube root must meet: 1e-10 (y2 (1 + tau^2 + r^2))^2."""
    return 1e-10 * (y2 * (1.0 + tau * tau + r * r)) ** 2


def _from_estimates(residual, taus, y2, rows, a, b, f_a, f_b, r, fr):
    """The roots of brackets [a, b] with ends of opposite signs f(a), f(b),
    from an estimate r inside each and f there: an estimate that meets
    _tolerance stands, and Brent's method solves the rest to 1e-12 (1 + b)
    on the half of the bracket that the sign of f(r) picks.  Returns the
    roots and f there.
    """
    if np.any(np.isnan(fr)):
        raise SolverError("NaN residual inside a root bracket",
                          {"brackets": len(r), "iteration": 0})
    r, fr = r.copy(), fr.copy()
    miss = np.flatnonzero(np.abs(fr) > _tolerance(y2, taus[rows], r))
    if len(miss):
        up = np.sign(fr[miss]) == np.sign(f_a[miss])  # the root lies above r
        lo, hi = np.where(up, r[miss], a[miss]), np.where(up, b[miss], r[miss])
        f_lo, f_hi = np.where(up, fr[miss], f_a[miss]), np.where(up, f_b[miss], fr[miss])
        r[miss], fr[miss] = _brent(lambda index, z: residual(rows[miss[index]], z),
                                   lo, hi, f_lo, f_hi, 1e-12 * (1.0 + b[miss]), 1e-15)
    return r, fr


def _polish(residual, taus, y2, rows, a, b, r, fr, slope):
    """The roots r after one Newton step on each one's slope, kept where it
    stays in [a, b] and lowers |residual|, and f there; every root must then
    meet _tolerance, else SolverError names the worst."""
    r, fr = r.copy(), fr.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        polished = r - fr / slope
    trial = np.flatnonzero((slope != 0.0) & (a <= polished) & (polished <= b))
    if len(trial):
        with np.errstate(all="ignore"):  # a step onto a pole is not kept
            f_pol = residual(rows[trial], polished[trial])
        keep = np.abs(f_pol) < np.abs(fr[trial])
        r[trial[keep]], fr[trial[keep]] = polished[trial[keep]], f_pol[keep]
    tau = taus[rows]
    bound = _tolerance(y2, tau, r)
    if np.any(np.abs(fr) > bound):
        k = int(np.argmax(np.abs(fr) / bound))
        raise SolverError("tube root polish failed to meet tolerance", {
            "tau": float(tau[k]), "radius": float(r[k]),
            "residual": float(fr[k]), "bound": float(bound[k])})
    return r, fr


def _settle(signed_residual, residual, taus, y2, rows, a, b, f_a, f_b, signed_ends, x, x_rows):
    """The roots of a block of taus from its probe grid's brackets (rows, a,
    b, f(a), f(b)) and its minima within round-off (x, x_rows), which are
    fold roots: (rows, radii).

    Each bracket is solved by Brent's method to 1e-12 (1 + b) and polished
    by _polish on the slope of the residual _RESOLUTION (1 + r) either side
    of the root.  A root is resolved when its bracket has two signed ends,
    or when the residual is signed either side of it; else it lies in a
    round-off band that may hold no root, one or a pair.  A minimum within
    round-off is a fold root, which must be resolved too.  Raises
    GeometryError naming the tau of a root that is not.
    """
    r, fr = np.empty((2, 0))
    if len(rows):
        r, fr = _brent(lambda index, z: residual(rows[index], z), a, b, f_a, f_b,
                       1e-12 * (1.0 + b), 1e-15)
    at, at_rows, fold = np.concatenate([r, x]), np.concatenate([rows, x_rows]), np.empty(0, bool)
    if len(at):
        n, m, dr = len(at), len(r), _RESOLUTION * (1.0 + at)
        f_at, s_at, _ = signed_residual(taus[np.concatenate([at_rows, at_rows, x_rows])],
                                        np.concatenate([at + dr, at - dr, x]))
        fold, side = ~s_at[2 * n:], s_at[:n] & s_at[n:2 * n]
        lost = ~side & np.concatenate([~signed_ends, fold])
        if lost.any():
            raise GeometryError("tube root is lost to round-off at tau "
                                f"{float(taus[at_rows[lost][0]])!r}")
        r, fr = _polish(residual, taus, y2, rows, a, b, r, fr,
                        (f_at[:m] - f_at[n:n + m]) / (2.0 * dr[:m]))
    return np.concatenate([rows, x_rows[fold]]), np.concatenate([r, x[fold]])


def _block_profiles(worlds, kind: str, y2: float, taus: np.ndarray, rmaxs: np.ndarray,
                    degree, even: bool):
    """(tau, [radii]) for a block of taus; worlds(tau, r) broadcasts and
    returns the six world values of the skeleton and the probe point.  With
    a degree, the Chebyshev proxy takes every tau it can settle and the
    probe grid the rest; without one, the grid takes them all."""

    def signed_residual(tau, r):
        """The residual, True where it is not lost to round-off, and the
        round-off floor below which it has no sign."""
        res, bound = _first_order(kind, *worlds(tau, r), roundoff=True)
        floor = _ROUNDOFF * _EPS * np.maximum(bound, 1.0)
        return res, np.abs(res) > floor, floor

    def residual(rows, r):
        return _first_order(kind, *worlds(taus[rows], r))

    found, grid = [], np.arange(len(taus))
    if degree is not None:
        settled, grid = _proxy_roots(signed_residual, residual, taus, y2, rmaxs, degree, even)
        found.append(settled)
    if len(grid):
        axis, *brackets = _grid_brackets(signed_residual, residual, taus, rmaxs, grid)
        found.append((axis, *_settle(signed_residual, residual, taus, y2, *brackets)))
    axis, rows, radii = (np.concatenate(parts) for parts in zip(*found))
    roots = [[] for _ in range(len(taus))]
    for i, root in zip(np.concatenate([axis, rows]).tolist(),
                       np.concatenate([np.zeros(len(axis)), radii]).tolist()):
        roots[i].append(root)
    out = []
    for tau, radii in zip(taus.tolist(), roots):
        merged = []
        for r in sorted(radii):
            if merged and abs(r - merged[-1]) < _FOLD_TOL * (1.0 + r):
                continue  # fold: tangential root, multiplicity 2, reported once
            merged.append(r)
        out.append((tau, merged))
    return out


def sample_axisymmetric_tube(w: WorldFunction, y, kind: str, tau_grid: Sequence[float]):
    """Radial profile of the first-order tube with skeleton (origin, y).

    For each tau, finds all r >= 0 such that the point tau*y + r*|y|*e_perp
    lies on the tube of the given kind, with e_perp the deterministic unit
    normal to y.  rmax is per tau, max(10 (1 + 1/max(g, 0.01)),
    3 + 2 sqrt(3) |tau|) for reduced asymmetry g = alpha |b.y|, 0 without
    an alpha: the floor holds the first term to at most 1,010.  So no tau's
    profile depends on the other taus.  World values are read in w.unit,
    b.y on case2 too, whose alpha has no unit.

    On a world without a screening beta the residual along a section is a
    polynomial in r, of degree 6 with an a3 term and 4 without, and a
    Chebyshev proxy finds the roots first (Boyd, SIAM Review 55, 2013;
    Trefethen, Approximation Theory and Approximation Practice, ch. 18).
    The residual at degree + 3 Chebyshev points on [0, rmax] must fit a
    polynomial of that degree to round-off; the colleague matrix gives its
    roots, each with the spread by which round-off of the node values can
    move it.  Each lone real root is bracketed by its spread, and at least
    1e-6 (1 + r), either side.  Its estimate is the root when the residual
    there meets the acceptance below; else Brent's method solves the half
    of the bracket that the residual's sign there picks.  Either is then
    polished by one Newton step on the proxy's slope.  Without an a3 term
    the residual is even in r, and the proxy's root pair about r = 0 is the
    axis root when the residual there is within round-off (the axis of a
    flat world, at every tau).  A tau goes to the probe grid when its fit fails,
    when a bracket lacks two signed ends of opposite signs, or when a root
    or a cluster of roots lies where round-off of the node values leaves it
    unsettled: near-double roots and folds, roots near the axis or near
    rmax.

    The probe grid takes those taus and every tau on a screened world,
    whose residual has poles: the residual at r = 0 and at _PROBES - 1
    radii on a geometric grid out to rmax, dense enough for the root pairs
    that flank a pole spike or lie between two probes of a strongly cubic
    world.  Sign changes between probes bracket roots.  A root pair between
    two probes shows as a minimum of |residual| at a probe, or as a run of
    probes within round-off between two of one sign; Brent's minimiser
    searches each such interval for a crossing (two more brackets) or a
    minimum within round-off (a fold root).  r = 0 within round-off is a
    root when the probe at 1e-6 is not.

    The grid's brackets are solved by Brent's method to 1e-12 and polished
    with one Newton step.  Every root must meet |residual| <= 1e-10 (y2 (1 +
    tau^2 + r^2))^2, else SolverError; roots closer than 1e-8 are merged
    (tangential root at a fold).  A root whose neighbourhood, 1e-6 (1 + r)
    either side, is lost to round-off of the world values the residual is
    built from raises GeometryError naming the tau, unless its bracket has
    two signed ends; so does, on the grid, r = 0 within round-off when the
    probe at 1e-6 is too.  Taus are sampled in blocks of _TAU_BLOCK, which
    bounds memory however long the grid is.  A tau whose rmax overflows
    raises GeometryError; one that is not finite raises ValueError before
    any world call.

    Returns a list of (tau, [radii]) pairs.
    """
    check_kind(kind)
    taus = np.asarray(tau_grid, dtype=float).reshape(-1)
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau_grid must be finite")
    g = _metric_of(w)
    y = np.asarray(y, dtype=float)
    origin = np.zeros(w.dim)
    unit = w.unit
    with np.errstate(all="ignore"):
        w01, w10 = w(origin, y) / unit, w(y, origin) / unit  # the skeleton's own pair, fixed
        y2 = float(w01 + w10)
    if not 0.0 < y2 < np.inf:  # NaN at a pole of the world function fails too
        raise GeometryError(f"y must be timelike (positive finite squared separation, got {y2!r})")
    ynorm = float(np.sqrt(y2 * unit))
    b, alpha = w.spec.b, w.spec.alpha
    if b is not None:
        y_cov = g @ y / ynorm
        kappa = float(b @ y) / ynorm
        if np.max(np.abs(b - kappa * y_cov)) > 1e-10 * (unit + np.max(np.abs(b))):
            raise GeometryError("anisotropy covector must be aligned with y")
    e_perp = spacelike_unit_normal(w, y)

    reduced = 0.0 if alpha is None else abs(alpha) * abs(float(b @ y)) / (
        1.0 if w.spec.beta is None else unit)
    base = 10.0 * (1.0 + 1.0 / max(reduced, 1e-2))
    with np.errstate(over="ignore"):
        rmaxs = np.maximum(base, 3.0 + 2.0 * np.sqrt(3.0) * np.abs(taus))
    finite = np.isfinite(rmaxs)
    if not finite.all():
        raise GeometryError(f"tube search radius rmax overflows at tau {float(taus[~finite][0])!r}")

    # the residual's degree in r along a section, and none where beta
    # brings poles; without a3 it is even in r, as b is aligned with y
    even = w.spec.a3 is None
    degree = None if w.polynomial_scale is None else 4 if even else 6
    skeleton = np.stack([origin, y])

    def worlds(tau, r):
        # one world call each way between the skeleton and the probe points
        p = tau[..., None] * y + r[..., None] * ynorm * e_perp
        ends = skeleton.reshape((2,) + (1,) * (p.ndim - 1) + (w.dim,))
        (w02, w12), (w20, w21) = w(ends, p) / unit, w(p, ends) / unit
        return w01, w10, w02, w20, w12, w21

    out = []
    for start in range(0, len(taus), _TAU_BLOCK):
        block = slice(start, start + _TAU_BLOCK)
        out.extend(_block_profiles(worlds, kind, y2, taus[block], rmaxs[block], degree, even))
    return out


# ---------------------------------------------------------------------------
# Broken world tubes
# ---------------------------------------------------------------------------


@dataclass
class BrokenTube:
    """Chain of equal-length segments with extremal continuation.

    parallel_residuals holds the adjacent-segment parallelism defect of the
    chain's kind at each interior vertex; length_residuals the relative
    defect of each segment's kind length (the solved constraint), and
    sym_length_residuals the defect of the symmetrized length.  The two
    lengths agree exactly on symmetric worlds and to cubic order in mu on
    fine-antisymmetric ones.
    """

    vertices: np.ndarray
    mu: float
    kind: str
    parallel_residuals: np.ndarray
    length_residuals: np.ndarray
    sym_length_residuals: np.ndarray
    multiplicity_flags: list


def kind_length_sq(w: WorldFunction, kind: str, pa, pb):
    """Squared segment length of the kind, 2 k(pa, pb).  NaN or infinite,
    without a warning, at a pole of the world function.  Broadcasts over
    leading axes, and is a float for one segment."""
    with np.errstate(all="ignore"):
        sq = 2.0 * np.asarray(w.of_kind(kind, pa, pb), dtype=float)
    return float(sq) if sq.ndim == 0 else sq


def _timelike_length_sq(w: WorldFunction, kind: str, pa, pb, what: str) -> float:
    """kind_length_sq of the segment, which must be positive and finite."""
    sq = kind_length_sq(w, kind, pa, pb)
    if not 0.0 < sq < np.inf:  # NaN at a pole of the world function fails too
        raise GeometryError(f"{what} is not timelike for this kind "
                            f"(positive finite squared length, got {sq!r})")
    return sq


def _check_chain_inputs(mu, **points):
    """Raise ValueError, before any world call, unless mu is positive and
    finite and every named point is finite."""
    if not 0.0 < mu < np.inf:  # NaN fails too
        raise ValueError(f"mu must be positive and finite (got {float(mu)!r})")
    for name, p in points.items():
        if not np.all(np.isfinite(p)):
            raise ValueError(f"{name} must be finite")


def advance_seed(w: WorldFunction, kind: str, p0, direction, mu: float) -> np.ndarray:
    """Point at kind-length mu from p0 along the given direction (1-D Newton
    on the scaling); convenience for building chain seeds.  The Newton
    target is |L - mu^2| <= 1e-14 mu^2 for the squared length L.  A solve
    that stalls short of it, as round-off of L can make it away from the
    origin, is taken at 1e-8 mu^2, which implies build_broken_tube's seed
    check.  A solve that ends at t <= 0, against the direction, raises
    SolverError with t and the squared length.  Raises ValueError unless
    mu is positive and finite and p0 and direction are finite."""
    p0 = np.asarray(p0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    _check_chain_inputs(mu, p0=p0, direction=direction)
    base = _timelike_length_sq(w, kind, p0, p0 + direction, "direction")

    def length_sq(t):
        return kind_length_sq(w, kind, p0, p0 + t * direction)

    # the slope differences the length, not length - mu^2, which rounds differently
    def slope(z):
        dt = 1e-7 * (1.0 + abs(z[0]))
        return np.array([[(length_sq(z[0] + dt) - length_sq(z[0] - dt)) / (2.0 * dt)]])

    z, record = newton(lambda z: np.array([length_sq(z[0]) - mu * mu]), slope,
                       [mu / np.sqrt(base)], 1e-14 * mu * mu)
    if not record.residual_norm <= 1e-8 * mu * mu:
        raise SolverError("seed scaling did not converge", record._asdict())
    if not z[0] > 0.0:
        raise SolverError("seed scaling ends against the direction",
                          {"t": float(z[0]), "length_sq": length_sq(z[0])})
    return p0 + z[0] * direction


def chain_parallel_residual(w: WorldFunction, kind: str, pa, pb, pc):
    """Adjacent-segment parallelism defect |ab||bc| - (scalar product) for
    the segment pair (pa->pb, pb->pc), with the product order set by kind;
    the neutral kind takes the root of the two products.  Broadcasts over
    leading axes, and is a float for one segment pair."""
    check_kind(kind)
    res = _parallel_residual(kind, *_triple_worlds(w, pa, pb, pc))
    return float(res) if res.ndim == 0 else res


def _parallel_residual(kind: str, wab, wba, wac, wca, wbc, wcb):
    """chain_parallel_residual from the six ordered world values of the
    segment pairs, as _triple_worlds lists them."""
    lab, lbc = (_real_length(sq, "segment length") for sq in (wab + wba, wbc + wcb))
    x, y = kind_pair(kind, wac - wbc - wab, wca - wcb - wba)  # (ab . bc), (bc . ab)
    prod = np.sqrt(np.maximum(x * y, 0.0)) if kind == "n" else x
    return lab * lbc - prod


def _step_system(w: WorldFunction, kind: str, p_prev, p_mid, mu, carried):
    """Residual and Jacobian builders for one extremal continuation step.

    Stationarity of the kind's end-to-end objective on the level set of the
    new segment's kind length, solved for (next vertex, multiplier).  The
    kind length (not the symmetrized one) is what makes the chain converge
    to the kind's gradient line as mu shrinks.  The residual, the Jacobian
    and the step's start share one memo, keyed by the last vertex asked
    for, of the objective and constraint gradients (order 1) and their
    second_order Hessians (order 2, fd), each computed when first asked for
    there: the Jacobian's border reads the constraint gradient alone.  The border
    builder puts that border, at z's vertex, on a Jacobian: a Jacobian that
    Newton keeps for a chord step (tgeom.newton) takes it at the step's
    start, whose gradient the residual already read, so its length row
    stays exact to first order.  The fifth builder returns the Jacobian
    for the chord-step test of _isolated: the Jacobian last assembled,
    else the carried one (the last step's test's) bordered at z, whose
    constraint gradient the test's residual then reuses, else J(z).  All
    read the world in w.unit.
    """
    d, unit = w.dim, w.unit
    ends = {"objective": p_prev, "constraint": p_mid}
    memo = {}  # the last vertex and the tensors asked for there
    last = []  # the last Jacobian assembled

    def tensor(p, which, order):
        if not np.array_equal(memo.get("p"), p):
            memo.clear()
            memo["p"] = p.copy()
        if (which, order) not in memo:
            memo[which, order] = fd.kind_tensor(w, kind, ends[which], p, 0, order,
                                                second_order=order == 2) / unit
        return memo[which, order]

    def residual(z):
        p, lam = z[:d], z[d]
        r = np.empty(d + 1)
        r[:d] = tensor(p, "objective", 1) - lam * tensor(p, "constraint", 1)
        r[d] = (kind_length_sq(w, kind, p_mid, p) - mu * mu) / unit
        return r

    def border(jac, z):
        cg = tensor(z[:d], "constraint", 1)
        jac[:d, d] = -cg
        jac[d, :d] = 2.0 * cg
        last[:] = [jac]
        return jac

    def jacobian(z):
        p, lam = z[:d], z[d]
        jac = np.zeros((d + 1, d + 1))
        jac[:d, :d] = tensor(p, "objective", 2) - lam * tensor(p, "constraint", 2)
        return border(jac, z)

    def chord_jacobian(z):
        if last:
            return last[0]
        return jacobian(z) if carried is None else border(carried, z)

    return residual, jacobian, border, tensor, chord_jacobian


#: the chord step's miss that clears a step, as a fraction of the probe's offset
_CHORD_CONTRACTION = 0.1


def _isolated(residual, m, z1, z_a) -> bool:
    """True when a chord step shows that the step system has no root other
    than z1 within the probe's reach: with z_a the probe's start and m a
    Jacobian taken near z1, or carried from the step before, the vertex
    part of z_a - m^-1 F(z_a) lies within _CHORD_CONTRACTION |z_a - z1| of
    z1's (vertex parts both).

    The chord step lands at z1 + m^-1 (m - Jbar)(z_a - z1), with Jbar the
    Jacobian averaged from z1 to z_a (Dennis & Schnabel, Numerical Methods
    for Unconstrained Optimization and Nonlinear Equations, 1983, ch. 5).
    On a world whose step system is quadratic and with m = J(z1), a second
    root at z1 + t (z_a - z1), 0 < t <= 1, puts it |z_a - z1| / t from z1,
    so the test fails; elsewhere it is an estimate.  A singular m never
    clears."""
    try:
        step = np.linalg.solve(m, -residual(z_a))
    except np.linalg.LinAlgError:
        return False
    miss = np.linalg.norm(z_a[:-1] + step[:-1] - z1[:-1])
    return miss <= _CHORD_CONTRACTION * np.linalg.norm(z_a[:-1] - z1[:-1])


def build_broken_tube(w: WorldFunction, kind: str, p0, p1, mu: float,
                      steps: int) -> BrokenTube:
    """Extend the seed segment into a chain of `steps` additional vertices.

    Each new vertex extremizes the kind's end-to-end separation from the
    vertex two places back, holding the new segment length at mu; the
    Newton seed is the straight continuation.

    multiplicity_flags[i] is True when step i's extremum may not be unique:
    a second Newton solve, from the straight continuation shifted 0.05 mu
    transversally to the last segment, settles more than 1e-6 mu from the
    step's root, mu in coordinates (mu / sqrt(w.unit)).  That probe solve
    runs only when the chord-step test of _isolated, with the Jacobian the
    step's solve last assembled (or, where the guess solved the step, the
    one the last step's test used, bordered at the probe's start; on the
    first step, the probe's first), cannot show the root isolated; a step
    the test clears, or with no transverse direction, is flagged False.
    The carried Jacobian reaches no solve, so it can move only a flag.
    Raises ValueError unless mu is positive and finite and p0 and p1 are
    finite, and GeometryError naming the first segment whose symmetrized
    squared length is not positive, which the parallelism residuals cannot
    read.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    _check_chain_inputs(mu, p0=p0, p1=p1)
    seed_len = float(np.sqrt(_timelike_length_sq(w, kind, p0, p1, "seed segment")))
    if abs(seed_len - mu) > 1e-8 * mu:
        raise GeometryError(
            f"seed segment kind length {seed_len!r} does not match mu={float(mu)!r}"
        )
    d = w.dim
    # every vertex row up front, so a chain that memory cannot hold fails
    # before its first step
    verts = np.empty((steps + 2, d))
    verts[0], verts[1] = p0, p1
    flags = []
    scale = 1.0 + mu * mu / w.unit
    reach = mu / np.sqrt(w.unit)
    carried = None  # the Jacobian of the last step's chord-step test
    for index in range(steps):
        prev_p, mid = verts[index], verts[index + 1]
        residual, jacobian, border, tensor, chord_jacobian = _step_system(
            w, kind, prev_p, mid, mu, carried)

        def solve(z0):
            try:
                z, record = newton(residual, jacobian, z0, 1e-12 * scale, border)
            except SolverError as exc:
                raise SolverError("singular Jacobian in chain continuation",
                                  {"step": index, **exc.detail}) from exc
            if not record.residual_norm <= 1e-10 * scale:
                message = ("stalled (damping exhausted)" if record.stalled
                           else f"did not converge (|r| = {record.residual_norm:.3e})")
                raise SolverError(f"chain continuation {message}",
                                  {"step": index, **record._asdict()})
            return z

        guess = 2.0 * mid - prev_p
        # the first residual reuses both gradients
        og, cg = tensor(guess, "objective", 1), tensor(guess, "constraint", 1)
        denom = float(cg @ cg)
        lam0 = float(og @ cg) / denom if denom > 0 else 1.0
        z0 = np.concatenate([guess, [lam0]])
        z = solve(z0)
        new_p = z[:d]

        # multiplicity probe: restart from a transversally shifted seed,
        # unless a chord step from there shows the root isolated
        chord = mid - prev_p
        probe_dir = np.zeros(d)
        probe_dir[int(np.argmin(np.abs(chord)))] = 1.0
        probe_dir = probe_dir - (probe_dir @ chord) / (chord @ chord) * chord
        nrm = np.linalg.norm(probe_dir)
        flagged = False
        if nrm > 1e-12:
            z_alt0 = np.concatenate([guess + 0.05 * reach * probe_dir / nrm, [lam0]])
            carried = chord_jacobian(z_alt0)
            if not _isolated(residual, carried, z, z_alt0):
                try:
                    z_alt = solve(z_alt0)
                    if np.linalg.norm(z_alt[:d] - new_p) > 1e-6 * reach:
                        flagged = True
                except SolverError:
                    pass
        flags.append(flagged)
        verts[index + 2] = new_p

    # The closing pass reads each ordered pair of neighbours and of next
    # neighbours once, and forms every length and parallelism residual from
    # those values as kind_length_sq and chain_parallel_residual do.  The
    # parallelism residuals read the symmetrized lengths, which a chain of
    # kind f or p can turn spacelike while its kind lengths hold mu.
    with np.errstate(all="ignore"):  # NaN or infinite at a pole, as kind_length_sq
        fwd, rev = (np.asarray(w(*pair), dtype=float)
                    for pair in ((verts[:-1], verts[1:]), (verts[1:], verts[:-1])))
        sym_sq = 2.0 * parts(fwd, rev)[0]
        kind_sq = sym_sq if kind == "n" else 2.0 * (fwd if kind == "f" else rev)
    spacelike = np.flatnonzero(~(sym_sq > 0.0))
    if spacelike.size:
        i = int(spacelike[0])
        raise GeometryError(f"chain segment {i} (vertex {i} to {i + 1}) is not timelike: "
                            f"symmetrized squared length {float(sym_sq[i])!r}; "
                            f"parallelism residual undefined")
    par = _parallel_residual(kind, fwd[:-1], rev[:-1], w(verts[:-2], verts[2:]),
                             w(verts[2:], verts[:-2]), fwd[1:], rev[1:])
    lens, sym_lens = (np.abs(np.sqrt(sq) - mu) / mu for sq in (kind_sq, sym_sq))
    return BrokenTube(vertices=verts, mu=float(mu), kind=kind,
                      parallel_residuals=par, length_residuals=lens,
                      sym_length_residuals=sym_lens,
                      multiplicity_flags=flags)
