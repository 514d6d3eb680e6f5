"""Diagnostics: flat-space (Euclideaness) conditions and first-order tube
degeneration checks.

A world function describes an n-dimensional flat symmetric space exactly
when (I) it is symmetric, (II) some n+1 points have nonvanishing squared
length while every n+2 points have vanishing squared length, (III) the
world function is reproduced by the quadratic form of coordinates built
from scalar products against a basis, and (IV) every coordinate tuple is
realized by exactly one point.  Condition IV is continuum solvability; it
is checked here only as a sampled solve-success rate.

Conditions II and III read one Gram matrix: the basis matrix
g_ik = (P0Pi . P0Pk) is evaluated once (FlatBasis), and the coordinates
x_i(q) = (P0Pi . P0q) of a probe q are the border of the Gram matrix of the
basis extended by q.  Conditions I and III read each probe pair once in
each order.

Tube degeneration (collapse of first-order tubes to curves) requires the
antisymmetric part's gradient to cancel its own coincidence value and the
symmetric part to satisfy the eikonal identity; both are probed at small
finite separations.

A report evaluates a condition only while its verdict can still change the
summary, and names each check it skipped in its notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fd
from .errors import DegenerateSkeletonError, GeometryError, SingularMetricError
from .newton import newton
from .products import Multivector, _det, product_matrix
from .products import gram  # noqa: F401 (perfbench/instrument.py patches degeneracy.gram)
from .worlds import WorldFunction, _inv, parts, unit_of

#: Pass thresholds: algebraic identities at 1e-8, the eikonal limit at 1e-4.
IDENTITY_THRESHOLD = 1e-8
EIKONAL_THRESHOLD = 1e-4

#: diagnostic_probes: spacing along the first coordinate, transverse jitter
_PROBE_TIME_STEP = 0.35
_PROBE_JITTER = 0.12

#: coordinate targets of the sampled condition-IV solvability rate
_IV_TARGETS = 64

#: degeneration_check: outer probe separation relative to the anchor scale
_DEGENERATION_DELTA = 1e-2


@dataclass
class CheckResult:
    name: str
    residual: float
    threshold: float

    @property
    def verdict(self) -> bool:
        return self.residual <= self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "threshold": self.threshold,
            "verdict": "pass" if self.verdict else "fail",
        }


@dataclass
class DegeneracyReport:
    """Named residual checks with thresholds plus summary classifications."""

    world: str
    checks: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add(self, name: str, residual: float, threshold: float) -> CheckResult:
        result = CheckResult(name, float(residual), float(threshold))
        self.checks.append(result)
        return result

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "world": self.world,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
            "notes": self.notes,
        }


@dataclass
class FlatBasis:
    """Scalar-product coordinates built on an anchor point tuple p_0..p_n.

    g is the Gram matrix (p0p_i . p0p_k) of the basis vectors.  The
    coordinates x_i(q) = (p0p_i . p0q) of a point q are the border column of
    the Gram matrix of the basis extended by q, whose top-left block is g.
    """

    anchor: Multivector
    g: np.ndarray       # basis scalar products
    unit: float         # the largest power of two not above max |g_ik|
    unit_det: float     # det(g / unit): exact in g's scale, free of under- and overflow
    g_inv: np.ndarray
    back: np.ndarray    # w(p_i, p_0) for the basis points p_1..p_n

    @classmethod
    def build(cls, w: WorldFunction, anchor: Multivector) -> "FlatBasis":
        g = _finite(product_matrix(w, anchor, anchor), "basis")
        # max |g_ik|, not max |g_ii|: a null basis has a zero diagonal; all-zero g: det 0
        unit = float(unit_of(np.max(np.abs(g))))
        unit_det = _det(g / unit)
        if unit_det == 0.0:
            raise DegenerateSkeletonError("basis has vanishing squared length")
        g_inv = _inv(g, "basis scalar-product matrix")
        back = w(anchor.points[1:], anchor.points[0])
        return cls(anchor=anchor, g=g, unit=unit, unit_det=unit_det, g_inv=g_inv, back=back)

    def coordinates(self, w: WorldFunction, points) -> np.ndarray:
        """Covariant coordinates of points (..., d) as (..., n): scalar
        products of the basis vectors with the anchor-to-point vectors.
        w is the world the basis was built on; one call evaluates w(p_i, q)
        for every anchor point."""
        return self._coordinates(w, points)[0]

    def _coordinates(self, w: WorldFunction, points):
        """(coordinates, v): the coordinates of points and the world values
        v[..., i] = w(p_i, q) they are read from, (..., n + 1)."""
        v = w(self.anchor.points, np.asarray(points, dtype=float)[..., None, :])
        return self.back + v[..., :1] - v[..., 1:], v

    def jacobian(self, w: WorldFunction, point) -> np.ndarray:
        """d x_i / dq at q = point, as (n, d): one 2-point stencil of the
        coordinate map, a value row per coordinate, stepped as at the pair
        (p0, point).  It only steers condition IV's Newton, whose residual
        is the coordinate map itself (tgeom.newton)."""
        return fd.partial_tensor(lambda _, q: np.moveaxis(self.coordinates(w, q), -1, 0),
                                 self.anchor.points[0], point, 0, 1, second_order=True)


def diagnostic_probes(dim: int, count: int = 24, seed: int = 13) -> np.ndarray:
    """Deterministic probe points staggered along the first coordinate with
    small transverse jitter, so that pairwise separations stay timelike for
    signature metrics (keeping clear of the screened family's pole)."""
    rng = np.random.default_rng(seed)
    probes = rng.normal(size=(count, dim)) * _PROBE_JITTER
    probes[:, 0] += _PROBE_TIME_STEP * np.arange(count)
    return probes


def euclideaness_check(w: WorldFunction, basis_points, probes,
                       seed: int = 0) -> DegeneracyReport:
    """Run the four flat-space conditions against a basis and probe set.

    The basis of n + 1 points tests for an n-dimensional flat space; n
    need not be the chart's dimension (condition IV then reads 1).
    Conditions I-III are residual checks at IDENTITY_THRESHOLD; condition IV
    reports 1 - (Newton solve success rate) over sampled coordinate targets,
    a sampled proxy for continuum solvability, passing only at rate one.  IV
    runs only where I-III pass; elsewhere a note names it as skipped.
    The eigenvalue signs of the basis matrix classify a passing world as
    proper ('euclidean') or mixed-signature ('pseudo_euclidean').

    Every residual is read in the basis unit (FlatBasis.unit), which stands
    where an absolute 1 would: I divides by the larger of the unit and the
    largest |w|, III by the unit plus |w|, II by |det| of the basis Gram
    matrix times the unit plus |2 sym(p0, q)|, and IV's Newton tolerance is
    2e-9 units.  A world scaled by a power of two reads the same residuals,
    so a tiny or huge world gets the verdict of its unit-scale copy.
    """
    basis = Multivector(np.asarray(basis_points, dtype=float))
    n = basis.order
    pts = np.asarray(probes, dtype=float)
    if len(pts) == 0:
        raise ValueError("need at least one probe point")
    report = DegeneracyReport(world=w.kind)
    p0 = basis.points[0]
    # w(q, p_k), k = 0..n: the probes are checked before the basis
    to_basis = _finite(w(pts[:, None, :], basis.points), "probes")
    fb = FlatBasis.build(w, basis)
    coords, from_basis = fb._coordinates(w, pts)  # from_basis[:, k] = w(p_k, q)
    _finite(from_basis, "probes")

    # I and III read a forward row w(q_i, q_k) and a reverse row w(q_k, q_i)
    # over the later probes k > i, never a pair array, which would grow with
    # the square of the probe count; both orders share one reconstruction
    asym = 0.0
    scale_sig = fb.unit
    worst_recon = 0.0
    for i, q in enumerate(pts[:-1]):
        later = pts[i + 1:]
        fwd = _finite(w(q, later), "probes")
        rev = _finite(w(later, q), "probes")
        asym = max([asym, *np.abs(parts(fwd, rev)[1]).tolist()])
        scale_sig = max([scale_sig, *np.abs(fwd).tolist()])
        for k, *truths in zip(range(i + 1, len(pts)), fwd.tolist(), rev.tolist()):
            dx = coords[i] - coords[k]
            recon = 0.5 * float(dx @ fb.g_inv @ dx)
            worst_recon = max(worst_recon, *(abs(recon - t) / (fb.unit + abs(t)) for t in truths))
    report.add("I_symmetry", asym / scale_sig, IDENTITY_THRESHOLD)

    # II: basis has nonzero squared length; basis+probe tuples have zero.
    # The Gram matrix of basis+q borders fb.g with q's coordinates (column),
    # w(q, p0) + w(p0, p_k) - w(q, p_k) (row) and w(q, p0) + w(p0, q)
    # (corner, where w(q, q) = 0 drops out); both Gram matrices are read in
    # the basis unit, so neither determinant under- or overflows
    report.add("II_basis_nondegenerate", 1.0 if abs(fb.unit_det) <= 1e-12 else 0.0, 0.5)
    extended = np.empty((len(pts), n + 1, n + 1))
    extended[:, :n, :n] = fb.g
    extended[:, :n, n] = coords
    extended[:, n, :n] = to_basis[:, :1] + w(p0, basis.points[1:]) - to_basis[:, 1:]
    extended[:, n, n] = to_basis[:, 0] + from_basis[:, 0]
    extended /= fb.unit
    worst = 0.0
    for m, two_sym in zip(extended, np.abs(extended[:, n, n]).tolist()):
        worst = max(worst, abs(_det(m)) / max(abs(fb.unit_det) * (two_sym + 1.0), 1e-300))
    report.add("II_dimension", worst, IDENTITY_THRESHOLD)
    report.add("III_reconstruction", worst_recon, IDENTITY_THRESHOLD)

    # IV: sampled solvability of the coordinate equations, by the damped
    # Newton of tgeom.newton on one 2-point stencil of the coordinate map
    # per step; a world failing I-III is not Euclidean whatever IV says
    if all(c.verdict for c in report.checks):
        report.add("IV_solvability", 1.0 - _coordinate_solve_rate(w, fb, coords, seed), 0.0)
    else:
        report.notes.append("IV_solvability skipped: a condition of I-III fails")

    eigs = np.linalg.eigvalsh(0.5 * (fb.g + fb.g.T))
    signature = "euclidean" if np.all(eigs > 0) or np.all(eigs < 0) else "pseudo_euclidean"
    passed = all(c.verdict for c in report.checks)
    report.summary = {
        "conditions_passed": passed,
        "signature": signature,
        "eigenvalue_signs": [int(np.sign(e)) for e in eigs],
        "classification": (
            signature if passed else "not_euclidean"
        ),
    }
    return report


def _finite(values, where: str):
    """values, when all are finite; SingularMetricError naming where otherwise."""
    if np.all(np.isfinite(values)):
        return values
    raise SingularMetricError(f"world function is not finite on the {where} (pole in the chart?)")


def _coordinate_solve_rate(w, fb, coords, seed):
    """Fraction of coordinate targets reached by damped Newton on the
    coordinate equations from a random start near p0; targets are drawn
    inside the sampled coordinate range.  A solve that stalls, leaves the
    chart or meets a singular Jacobian counts as a failure."""
    if w.dim != fb.anchor.order:
        # coordinate count differs from chart dimension: the square Newton
        # system is not defined, count as unsolvable
        return 0.0
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    rng = np.random.default_rng(seed)
    targets = lo + (hi - lo) * rng.random((_IV_TARGETS, fb.anchor.order))
    p0 = fb.anchor.points[0]
    successes = 0
    tol = 2e-9  # in the basis unit, as the residuals and Jacobians below
    for target in targets:
        x0 = p0 + rng.normal(scale=0.1, size=w.dim)
        try:
            _, record = newton(lambda x: (fb.coordinates(w, x) - target) / fb.unit,
                               lambda x: fb.jacobian(w, x) / fb.unit, x0, tol)
        except (GeometryError, FloatingPointError):  # SolverError included
            continue
        successes += record.residual_norm <= tol
    return successes / _IV_TARGETS


def eta_triangle(w: WorldFunction, x, xp, y) -> float:
    """Cyclic sum of the antisymmetric part over a point triple; vanishes
    identically exactly when the antisymmetric part is linear with constant
    coefficients."""
    return float(w.asym(x, xp) + w.asym(xp, y) + w.asym(y, x))


def _directional_second_difference(w: WorldFunction, p, x, e, at_x) -> float:
    """e . H . e of the antisymmetric part's Hessian in its second point at
    (p, x), as (f(h) + f(-h) - 2 f(0)) / h^2 of f(t) = asym(p, x + t e):
    two world calls of 2 points, one per argument order, with at_x = f(0)
    already read and h the step of the (0, 2) tensor there
    (fd.step_size)."""
    h = fd.step_size(w, 2, p, x)
    q = x + np.array([h, -h])[:, None] * e
    with np.errstate(all="ignore"):  # a non-finite value raises below
        f = w.asym(p, q)
        value = (float(f[0] + f[1]) - 2.0 * float(at_x)) / (h * h)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite world-function value in stencil")
    return value


def degeneration_check(w: WorldFunction, x) -> DegeneracyReport:
    """First-order tube degeneration diagnostics at a point, probed along
    the coordinate axes, their diagonal and two fixed random directions at
    separation delta = _DEGENERATION_DELTA (1 + max |x^i|) and delta/10.

    neutral_gradient_cancel: variation of the antisymmetric part's gradient
        against its coincidence value over short displacements (the
        single-solution condition for the neutral tube).
    eikonal: relative defect of the symmetric part's eikonal identity,
        Richardson-extrapolated to zero separation from delta and delta/10.
    future_tube / past_tube: the second-order degeneration conditions of the
        directed tubes contracted along the displacement.

    Verdict per tube kind: 'degenerate' when its residuals pass, else
    'nondegenerate'.  The directed-tube checks run only where the neutral
    tube degenerates; elsewhere a note names them as skipped.

    Every tensor is read on 2-point stencils (fd, second_order=True; the
    coincidence Hessians' off-diagonal entries on the seven-point rule),
    and the directed-tube conditions, which read only e . H . e of the
    antisymmetric part's (0, 2) Hessian, take it from one second difference
    along e: at d = 4, 309 world points in 29 calls, or 337 in 43 where the
    neutral tube degenerates.  The rule's truncation, about
    1e-7 relative at the first-order step, stays clear of the thresholds:
    neutral_gradient_cancel passes only on an antisymmetric part linear to
    within 1e-8, on which the rule is exact; elsewhere the truncation of
    the separated and the coincidence gradients cancels to the order of
    the separation, and the shipped nondegenerate families read at least
    2.6e-4.  The eikonal's 1e-4 is a thousand times the truncation.  On
    the five families a passing residual stays within 5e-12 of the 4-point
    rule's and a failing one within 1e-4 of it, relative
    (tests/test_degeneracy.py).  The scales of the residuals take w.unit
    where an absolute 1 would stand; a scale that overflows, on coefficients
    near the float range, raises FloatingPointError.
    """
    x = np.asarray(x, dtype=float)
    d = w.dim
    dirs = [*np.eye(d), np.ones(d) / np.sqrt(d)]
    rng = np.random.default_rng(7)
    for _ in range(2):
        v = rng.normal(size=d)
        dirs.append(v / np.linalg.norm(v))

    report = DegeneracyReport(world=w.kind)
    scale = 1.0 + float(np.max(np.abs(x)))
    step = _DEGENERATION_DELTA * scale

    co = fd.part_tensors(w, x, x, [(2, 0), (1, 0), (0, 2)], second_order=True)
    cc_g = co["sym"][(2, 0)]  # coincidence metric
    g_inv = _inv(cc_g, "coincidence metric")
    a_co = co["asym"][(1, 0)]
    with np.errstate(over="ignore"):  # coefficients near the float range
        a_co_norm = float(np.linalg.norm(a_co))
    if a_co_norm == np.inf:
        raise FloatingPointError("neutral-gradient scale overflows at this anchor")
    sigma_f = co["full"][(2, 0)]
    sigma_p = co["full"][(0, 2)]

    outers = []
    grad_cancel = eikonal = 0.0
    for e in dirs:
        defects = []
        outers.append(fd.part_tensors(w, x + step * e, x, [(0, 0), (0, 1)],
                                     second_order=True))
        inner = fd.part_tensors(w, x + step / 10.0 * e, x, [(0, 0), (0, 1)],
                                second_order=True)
        for dlt, t in ((step, outers[-1]), (step / 10.0, inner)):
            a_grad = t["asym"][(0, 1)]
            grad_cancel = max(
                grad_cancel,
                abs(float((a_grad + a_co) @ e)) / (dlt * (w.unit + a_co_norm)),
            )
            g_grad = t["sym"][(0, 1)]
            two_g = 2.0 * float(t["sym"][(0, 0)])
            if two_g != 0.0:
                defects.append((float(g_grad @ g_inv @ g_grad) - two_g) / two_g)
        if len(defects) == 2:
            # Richardson step toward zero separation assuming quadratic decay
            extrap = (100.0 * defects[1] - defects[0]) / 99.0
            eikonal = max(eikonal, abs(extrap))
    report.add("neutral_gradient_cancel", grad_cancel, IDENTITY_THRESHOLD)
    report.add("eikonal", eikonal, EIKONAL_THRESHOLD)
    report.summary = dict.fromkeys(("neutral", "future", "past"), "nondegenerate")
    if not all(c.verdict for c in report.checks):
        report.notes.append("future_tube and past_tube skipped: the neutral "
                            "tube is nondegenerate")
        return report

    # directed-tube second-order conditions at the outer separation, read
    # only where the neutral tube degenerates, the one place they can
    fut = past = 0.0
    for e, outer in zip(dirs, outers):
        two_g = 2.0 * float(outer["sym"][(0, 0)])
        g_grad = outer["sym"][(0, 1)]
        with np.errstate(over="ignore"):  # an anchor far out in the chart
            norm = abs(two_g) * (w.unit + np.linalg.norm(g_grad))
        if norm == np.inf:
            raise FloatingPointError("tube-condition scale overflows at this anchor")
        a_ee = _directional_second_difference(w, x + step * e, x, e, outer["asym"][(0, 0)])
        fut_val = two_g * (a_ee - float(e @ sigma_p @ e)) + float(g_grad @ e) ** 2
        past_val = two_g * (a_ee + float(e @ sigma_f @ e)) - float(g_grad @ e) ** 2
        fut = max(fut, abs(fut_val) / max(norm, 1e-300))
        past = max(past, abs(past_val) / max(norm, 1e-300))
    report.summary["neutral"] = "degenerate"
    for kind, residual in (("future", fut), ("past", past)):
        if report.add(f"{kind}_tube", residual, IDENTITY_THRESHOLD).verdict:
            report.summary[kind] = "degenerate"
    report.notes.append(
        "second-order directed-tube conditions evaluated at finite "
        "separation with coincidence brackets taken at the anchor point; "
        "the quadratic product term enters with the sign that makes the "
        "flat symmetric case degenerate"
    )
    return report
