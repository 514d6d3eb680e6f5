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

from dataclasses import dataclass, field
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
from .products import Multivector, gram
from .worlds import WorldFunction, check_kind, parts

#: alpha coefficient of the factorization per kind
_ALPHA_Q = {"f": 1.0, "p": 1.0, "n": -1.0}


@dataclass(frozen=True)
class TubeSpec:
    """Skeleton points plus tube kind (kind only matters for order 1)."""

    skeleton: Multivector
    kind: str = "n"

    def __post_init__(self):
        check_kind(self.kind)


def _separation_scale(w: WorldFunction, points) -> float:
    """max(1, |2 sym(pi, pk)|) over the distinct pairs of the points."""
    pts = np.asarray(points, dtype=float)
    i, k = np.triu_indices(len(pts), 1)
    return max([1.0, *np.abs(2.0 * w.sym(pts[i], pts[k])).tolist()])


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


def _first_order(w: WorldFunction, kind: str, p0, p1, p2):
    """First-order tube residual of the kind and the magnitude of the terms
    it cancels, broadcast over leading axes."""
    check_kind(kind)
    w01, w10, w02, w20, w12, w21 = _triple_worlds(w, p0, p1, p2)
    u2, v2 = w01 + w10, w02 + w20
    uv, vu = w10 + w02 - w12, w20 + w01 - w21
    cross = uv * vu if kind == "n" else uv * uv if kind == "f" else vu * vu
    return u2 * v2 - cross, np.abs(u2 * v2) + np.abs(uv * vu)


def _pair_values(w: WorldFunction, p0, p1, p2):
    """Symmetric separations and the triangle antisymmetry of a point triple."""
    w01, w10, w02, w20, w12, w21 = _triple_worlds(w, p0, p1, p2)
    g10, a10 = parts(w10, w01)
    g02, a02 = parts(w02, w20)
    g21, a21 = parts(w21, w12)
    return float(g02), float(g10), float(g21), float(a10 + a02 + a21)


def _eta_q(kind: str, g10: float, g02: float, eta_f: float) -> float:
    if kind == "f":
        return eta_f
    if kind == "p":
        return -eta_f
    prod = g10 * g02
    if prod < 0.0:
        raise ComplexLengthError("neutral eta needs a nonnegative separation product")
    return eta_f**2 / (np.sqrt(4.0 * prod + eta_f**2) + 2.0 * np.sqrt(prod))


def _sqrt_checked(value: float, what: str) -> float:
    if value < 0.0:
        raise ComplexLengthError(f"negative radicand in {what} (spacelike/complex branch)")
    return float(np.sqrt(value))


def first_order_factors(w: WorldFunction, kind: str, p0, p1, p2):
    """The four first-degree factors of the first-order tube residual and
    the triangle antisymmetry eta of the kind.

    minus the product of the four factors equals the direct Gram residual of
    the kind.  Raises ComplexLengthError on any negative radicand.
    """
    check_kind(kind)
    g02, g10, g12, eta_f = _pair_values(w, p0, p1, p2)
    eta = _eta_q(kind, g10, g02, eta_f)
    alpha = _ALPHA_Q[kind]
    r02 = _sqrt_checked(g02, "separation p0-p2")
    r10 = _sqrt_checked(g10, "separation p1-p0")
    ra = _sqrt_checked(g12 - eta, "kind radicand")
    rb = _sqrt_checked(g12 - alpha * eta, "kind radicand")
    f0 = r02 + r10 + ra
    f1 = r02 - r10 + rb
    f2 = r02 + r10 - ra
    f3 = r02 - r10 - rb
    return f0, f1, f2, f3, float(eta)


def first_order_residual(w: WorldFunction, kind: str, p0, p1, p2) -> float:
    """Direct first-order tube residual of the given kind (no square roots,
    valid on every branch)."""
    return float(_first_order(w, kind, p0, p1, p2)[0])


def segment_residual(w: WorldFunction, kind: str, p0, p1, p2) -> float:
    """Residual of the tube segment between the two basic points: the factor
    sqrt(g02) - sqrt(g10) + sqrt(g12 - alpha_q eta_q); zero iff p2 lies on
    the segment."""
    check_kind(kind)
    g02, g10, g12, eta_f = _pair_values(w, p0, p1, p2)
    eta = _eta_q(kind, g10, g02, eta_f)
    return (
        _sqrt_checked(g02, "separation p0-p2")
        - _sqrt_checked(g10, "separation p1-p0")
        + _sqrt_checked(g12 - _ALPHA_Q[kind] * eta, "kind radicand")
    )


def sphere_residual(w: WorldFunction, p0, p1, point) -> float:
    """Envelope residual of the sphere through p1 centered at p0: distance
    from the center minus the radius.  Uses only symmetrized separations,
    so asymmetry of the world never enters."""
    a = float(w(p0, point) + w(point, p0))
    b = float(w(p0, p1) + w(p1, p0))
    return _sqrt_checked(a, "center separation") - _sqrt_checked(b, "radius separation")


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
    if w.spec is None or w.spec.metric is None:
        raise GeometryError("sampler needs a world built from a WorldSpec")
    return np.asarray(w.spec.metric, dtype=float)


def spacelike_unit_normal(w: WorldFunction, y) -> np.ndarray:
    """Deterministic unit vector orthogonal to y in the world metric:
    Gram-Schmidt against y starting from the first coordinate axis that is
    not parallel to y.  Normalized to |g(e, e)| = 1."""
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
        if np.max(np.abs(v)) > 1e-8 and abs(norm2) > 1e-12:
            return v / np.sqrt(abs(norm2))
    raise GeometryError("no coordinate axis is independent of y")


def reduced_asymmetry(w: WorldFunction, y) -> float:
    """Dimensionless asymmetry strength of the reduced tube profile,
    alpha |b.y| (equals alpha |y| for a unit anisotropy covector)."""
    if w.spec is None or w.spec.b is None or w.spec.alpha is None:
        return 0.0
    b = np.asarray(w.spec.b, dtype=float)
    return abs(float(w.spec.alpha)) * abs(float(b @ np.asarray(y, dtype=float)))


#: taus whose probe grids share one world call; bounds the sampler's memory
_TAU_BLOCK = 64

#: probe radii per tau (r = 0 and a geometric grid out to rmax) that bracket roots
_PROBES = 256

#: iteration cap of the bracket solver (the usual brentq default)
_BRENT_MAXITER = 100


def _brent(f, xa, xb, fa, fb, xtol, rtol):
    """Brent's method (Brent 1973, ch. 4) on many independent brackets at once.

    Follows the standard brentq routine step for step, so every bracket ends
    on the root brentq returns for it, to the last bit.  f(index, x)
    evaluates the functions of brackets `index` at x; fa and fb are the end
    values, of strictly opposite signs.  Returns the roots and f there.
    """
    n = len(xa)
    root, froot, index = np.empty(n), np.empty(n), np.arange(n)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), (n,))
    xpre, xcur, fpre, fcur = (np.array(v, dtype=float) for v in (xa, xb, fa, fb))
    xblk, fblk, spre, scur = np.zeros((4, n))
    for iteration in range(_BRENT_MAXITER):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, [xcur, xblk, xcur], [xpre, xcur, xblk])
        fpre, fcur, fblk = np.where(swap, [fcur, fblk, fcur], [fpre, fcur, fblk])
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[index[done]], froot[index[done]] = xcur[done], fcur[done]
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
        fcur = f(index, xcur)
        if np.any(np.isnan(fcur)):
            raise SolverError("NaN residual inside a root bracket",
                              {"brackets": n, "iteration": iteration})
    raise SolverError(f"root bracket did not converge in {_BRENT_MAXITER} iterations",
                      {"brackets": n, "iteration": _BRENT_MAXITER})


def _block_profiles(residual, y2: float, taus: np.ndarray, rmaxs: np.ndarray):
    """(tau, [radii]) for a block of taus; residual(tau, r) broadcasts."""
    grid = np.concatenate([np.zeros((len(taus), 1)),
                           np.geomspace(1e-6, rmaxs, _PROBES - 1, axis=-1)], axis=1)
    with np.errstate(all="ignore"):  # overflow far out is reported below
        vals, mags = residual(taus[:, None], grid)
    finite = np.all(np.isfinite(vals) & np.isfinite(mags), axis=1)
    if not finite.all():
        raise GeometryError(f"tube residual is not finite at tau {float(taus[~finite][0])!r}")
    # a residual within round-off of the cancelling terms it is assembled
    # from has no sign: r = 0 is then a root, an interior zero is one only
    # beside a signed probe, and two unsigned probes bracket nothing
    signed = np.abs(vals) > 64.0 * np.finfo(float).eps * np.maximum(mags, 1.0)
    lost = ~np.any(signed, axis=1)
    if lost.any():
        raise GeometryError(f"tube residual is lost to round-off at tau {float(taus[lost][0])!r}")
    lo, hi, f_lo, f_hi = grid[:, :-1], grid[:, 1:], vals[:, :-1], vals[:, 1:]
    roots = [[] if s else [0.0] for s in signed[:, 0]]
    for i, k in zip(*np.nonzero((vals[:, 1:-1] == 0.0) & (signed[:, :-2] | signed[:, 2:]))):
        roots[i].append(float(grid[i, k + 1]))
    rows, cols = np.nonzero((f_lo * f_hi < 0.0) & (signed[:, :-1] | signed[:, 1:]))
    if len(rows):
        a, b, tau = lo[rows, cols], hi[rows, cols], taus[rows]
        r, fr = _brent(lambda index, x: residual(tau[index], x)[0], a, b,
                       f_lo[rows, cols], f_hi[rows, cols], 1e-12 * (1.0 + b), 1e-15)
        # one Newton step on a central-difference slope, kept when it stays
        # in the bracket and does not increase the residual
        dr = 1e-7 * (1.0 + r)
        f_up, f_down = residual(tau, np.stack([r + dr, r - dr]))[0]
        slope = (f_up - f_down) / (2.0 * dr)
        with np.errstate(divide="ignore", invalid="ignore"):
            polished = r - fr / slope
        trial = np.flatnonzero((slope != 0.0) & (a <= polished) & (polished <= b))
        if len(trial):
            f_pol = residual(tau[trial], polished[trial])[0]
            keep = np.abs(f_pol) <= np.abs(fr[trial])
            r[trial[keep]], fr[trial[keep]] = polished[trial[keep]], f_pol[keep]
        bound = 1e-10 * (y2 * (1.0 + tau * tau + r * r)) ** 2
        if np.any(np.abs(fr) > bound):
            k = int(np.argmax(np.abs(fr) / bound))
            raise SolverError("tube root polish failed to meet tolerance", {
                "tau": float(tau[k]), "radius": float(r[k]),
                "residual": float(fr[k]), "bound": float(bound[k])})
        for i, root in zip(rows, r.tolist()):
            roots[i].append(root)
    out = []
    for tau, found in zip(taus.tolist(), roots):
        merged = []
        for r in sorted(found):
            if merged and abs(r - merged[-1]) < 1e-8 * (1.0 + r):
                continue  # fold: tangential root, multiplicity 2, reported once
            merged.append(r)
        out.append((tau, merged))
    return out


def sample_axisymmetric_tube(w: WorldFunction, y, kind: str, tau_grid: Sequence[float]):
    """Radial profile of the first-order tube with skeleton (origin, y).

    For each tau, finds all r >= 0 such that the point tau*y + r*|y|*e_perp
    lies on the tube of the given kind, with e_perp the deterministic unit
    normal to y.  Roots are bracketed on a geometric grid out to rmax, solved
    by Brent's method to 1e-12 and polished with one Newton step; roots
    closer than 1e-8 are merged (tangential root at a fold).  rmax is per
    tau, max(10 (1 + 1/g), 3 + 2 sqrt(3) |tau|) for reduced asymmetry g, so
    no tau's profile depends on the other taus.  Taus are sampled in blocks
    of _TAU_BLOCK, which bounds memory however long the grid is.

    Returns a list of (tau, [radii]) pairs.
    """
    check_kind(kind)
    g = _metric_of(w)
    y = np.asarray(y, dtype=float)
    origin = np.zeros(w.dim)
    with np.errstate(all="ignore"):
        y2 = 2.0 * float(w.sym(origin, y))
    if not 0.0 < y2 < np.inf:  # NaN at a pole of the world function fails too
        raise GeometryError(f"y must be timelike (positive finite squared separation, got {y2!r})")
    ynorm = float(np.sqrt(y2))
    if w.spec.b is not None:
        b = np.asarray(w.spec.b, dtype=float)
        y_cov = g @ y / ynorm
        kappa = float(b @ y) / ynorm
        if np.max(np.abs(b - kappa * y_cov)) > 1e-10 * (1.0 + np.max(np.abs(b))):
            raise GeometryError("anisotropy covector must be aligned with y")
    e_perp = spacelike_unit_normal(w, y)

    taus = np.asarray(tau_grid, dtype=float).reshape(-1)
    base = 10.0 * (1.0 + 1.0 / max(reduced_asymmetry(w, y), 1e-2))
    rmaxs = np.maximum(base, 3.0 + 2.0 * np.sqrt(3.0) * np.abs(taus))

    def residual(tau, r):
        return _first_order(w, kind, origin, y, tau[..., None] * y + r[..., None] * ynorm * e_perp)

    out = []
    for start in range(0, len(taus), _TAU_BLOCK):
        block = slice(start, start + _TAU_BLOCK)
        out.extend(_block_profiles(residual, y2, taus[block], rmaxs[block]))
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
    sym_length_residuals: np.ndarray = None
    multiplicity_flags: list = field(default_factory=list)


def kind_length_sq(w: WorldFunction, kind: str, pa, pb) -> float:
    """Squared segment length of the kind, 2 k(pa, pb).  NaN or infinite,
    without a warning, at a pole of the world function."""
    with np.errstate(all="ignore"):
        return 2.0 * float(w.of_kind(kind, pa, pb))


def _timelike_length_sq(w: WorldFunction, kind: str, pa, pb, what: str) -> float:
    """kind_length_sq of the segment, which must be positive and finite."""
    sq = kind_length_sq(w, kind, pa, pb)
    if not 0.0 < sq < np.inf:  # NaN at a pole of the world function fails too
        raise GeometryError(f"{what} is not timelike for this kind "
                            f"(positive finite squared length, got {sq!r})")
    return sq


def advance_seed(w: WorldFunction, kind: str, p0, direction, mu: float) -> np.ndarray:
    """Point at kind-length mu from p0 along the given direction (1-D Newton
    on the scaling); convenience for building chain seeds."""
    p0 = np.asarray(p0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    base = _timelike_length_sq(w, kind, p0, p0 + direction, "direction")

    def length_sq(t):
        return kind_length_sq(w, kind, p0, p0 + t * direction)

    # the slope differences the length, not length - mu^2, which rounds differently
    def slope(z):
        dt = 1e-7 * (1.0 + abs(z[0]))
        return np.array([[(length_sq(z[0] + dt) - length_sq(z[0] - dt)) / (2.0 * dt)]])

    tol = 1e-14 * mu * mu
    z, record = newton(lambda z: np.array([length_sq(z[0]) - mu * mu]), slope,
                       [mu / np.sqrt(base)], tol)
    if not record.residual_norm <= tol:
        raise SolverError("seed scaling did not converge", record._asdict())
    return p0 + z[0] * direction


def chain_parallel_residual(w: WorldFunction, kind: str, pa, pb, pc) -> float:
    """Adjacent-segment parallelism defect |ab||bc| - (scalar product) for
    the segment pair (pa->pb, pb->pc), with the product order set by kind."""
    check_kind(kind)
    wab, wba, wac, wca, wbc, wcb = _triple_worlds(w, pa, pb, pc)
    lab = _sqrt_checked(float(wab + wba), "segment length")
    lbc = _sqrt_checked(float(wbc + wcb), "segment length")
    uv = float(wac - wbc - wab)  # (ab . bc)
    vu = float(wca - wcb - wba)  # (bc . ab)
    if kind == "f":
        return lab * lbc - uv
    if kind == "p":
        return lab * lbc - vu
    prod = uv * vu
    return lab * lbc - np.sqrt(max(prod, 0.0))


def _step_system(w: WorldFunction, kind: str, p_prev, p_mid, mu):
    """Residual and Jacobian builders for one extremal continuation step.

    Stationarity of the kind's end-to-end objective on the level set of the
    new segment's kind length, solved for (next vertex, multiplier).  The
    kind length (not the symmetrized one) is what makes the chain converge
    to the kind's gradient line as mu shrinks.
    """
    d = w.dim

    def objective_grad(p):
        return fd.kind_tensor(w, kind, p_prev, p, 0, 1)

    def constraint_grad(p):
        return fd.kind_tensor(w, kind, p_mid, p, 0, 1)

    def residual(z):
        p, lam = z[:d], z[d]
        r = np.empty(d + 1)
        r[:d] = objective_grad(p) - lam * constraint_grad(p)
        r[d] = kind_length_sq(w, kind, p_mid, p) - mu * mu
        return r

    def jacobian(z):
        p, lam = z[:d], z[d]
        jac = np.zeros((d + 1, d + 1))
        jac[:d, :d] = (fd.kind_tensor(w, kind, p_prev, p, 0, 2)
                       - lam * fd.kind_tensor(w, kind, p_mid, p, 0, 2))
        cg = constraint_grad(p)
        jac[:d, d] = -cg
        jac[d, :d] = 2.0 * cg
        return jac

    return residual, jacobian, objective_grad, constraint_grad


def build_broken_tube(w: WorldFunction, kind: str, p0, p1, mu: float,
                      steps: int) -> BrokenTube:
    """Extend the seed segment into a chain of `steps` additional vertices.

    Each new vertex extremizes the kind's end-to-end separation from the
    vertex two places back, holding the new segment length at mu; the
    Newton seed is the straight continuation.  A second solve from a
    transversally perturbed seed flags non-unique extrema.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    seed_sq = _timelike_length_sq(w, kind, p0, p1, "seed segment")
    if abs(np.sqrt(seed_sq) - mu) > 1e-8 * mu:
        raise GeometryError(
            f"seed segment kind length {np.sqrt(seed_sq)!r} does not match mu={mu!r}"
        )
    d = w.dim
    verts = [p0, p1]
    flags = []
    scale = 1.0 + mu * mu
    for index in range(steps):
        prev_p, mid = verts[-2], verts[-1]
        residual, jacobian, obj_grad, con_grad = _step_system(w, kind, prev_p, mid, mu)

        def solve(z0):
            try:
                z, record = newton(residual, jacobian, z0, 1e-12 * scale)
            except SolverError as exc:
                raise SolverError("singular Jacobian in chain continuation",
                                  {"step": index, **exc.detail}) from exc
            detail = {"step": index, **record._asdict()}
            if record.stalled:
                raise SolverError("chain continuation stalled (damping exhausted)", detail)
            if not record.residual_norm <= 1e-10 * scale:
                raise SolverError("chain continuation did not converge "
                                  f"(|r| = {record.residual_norm:.3e})", detail)
            return z

        guess = 2.0 * mid - prev_p
        og = obj_grad(guess)
        cg = con_grad(guess)
        denom = float(cg @ cg)
        lam0 = float(og @ cg) / denom if denom > 0 else 1.0
        z0 = np.concatenate([guess, [lam0]])
        z = solve(z0)
        new_p = z[:d]

        # multiplicity probe: restart from a transversally shifted seed
        chord = mid - prev_p
        probe_dir = np.zeros(d)
        probe_dir[int(np.argmin(np.abs(chord)))] = 1.0
        probe_dir = probe_dir - (probe_dir @ chord) / (chord @ chord) * chord
        nrm = np.linalg.norm(probe_dir)
        flagged = False
        if nrm > 1e-12:
            z_alt0 = np.concatenate([guess + 0.05 * mu * probe_dir / nrm, [lam0]])
            try:
                z_alt = solve(z_alt0)
                if np.linalg.norm(z_alt[:d] - new_p) > 1e-6 * mu:
                    flagged = True
            except SolverError:
                pass
        flags.append(flagged)
        verts.append(new_p)

    verts = np.asarray(verts)
    par = np.array([
        chain_parallel_residual(w, kind, verts[i], verts[i + 1], verts[i + 2])
        for i in range(len(verts) - 2)
    ])
    with np.errstate(all="ignore"):  # kind_length_sq of every segment
        lens_sq = 2.0 * w.of_kind(kind, verts[:-1], verts[1:])
    lens = np.abs(np.sqrt(lens_sq) - mu) / mu
    sym_lens = np.abs(np.sqrt(2.0 * w.sym(verts[:-1], verts[1:])) - mu) / mu
    return BrokenTube(vertices=verts, mu=float(mu), kind=kind,
                      parallel_residuals=par, length_residuals=lens,
                      sym_length_residuals=sym_lens,
                      multiplicity_flags=flags)
