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
basis extended by q.  Conditions I and III share one forward row of world
values per probe.

Tube degeneration (collapse of first-order tubes to curves) requires the
antisymmetric part's gradient to cancel its own coincidence value and the
symmetric part to satisfy the eikonal identity; both are probed at small
finite separations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fd
from .errors import (
    DegenerateSkeletonError,
    DimensionMismatchError,
    GeometryError,
    SingularMetricError,
)
from .products import Multivector, _det, product_matrix
from .products import gram  # noqa: F401 (perfbench/instrument.py patches degeneracy.gram)
from .worlds import WorldFunction, parts

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class FlatBasis:
    """Scalar-product coordinates built on an anchor point tuple p_0..p_n.

    g is the Gram matrix (p0p_i . p0p_k) of the basis vectors.  The
    coordinates x_i(q) = (p0p_i . p0q) of a point q are the border column of
    the Gram matrix of the basis extended by q, whose top-left block is g.
    """

    anchor: Multivector
    g: np.ndarray       # basis scalar products
    g_inv: np.ndarray
    back: np.ndarray    # w(p_i, p_0) for the basis points p_1..p_n

    @classmethod
    def build(cls, w: WorldFunction, anchor: Multivector) -> "FlatBasis":
        g = product_matrix(w, anchor, anchor)
        f_n = _det(g)
        if not np.isfinite(f_n):
            raise SingularMetricError(
                "world function is not finite on the basis (pole in the chart?)"
            )
        if f_n == 0.0:
            raise DegenerateSkeletonError("basis has vanishing squared length")
        if not np.all(np.isfinite(g)):
            raise SingularMetricError(
                "world function is not finite on the basis (pole in the chart?)"
            )
        try:
            g_inv = np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise SingularMetricError("basis scalar-product matrix singular") from exc
        if np.max(np.abs(g_inv @ g - np.eye(g.shape[0]))) > 1e-9:
            raise SingularMetricError("basis matrix badly conditioned")
        back = w(anchor.points[1:], anchor.points[0])
        return cls(anchor=anchor, g=g, g_inv=g_inv, back=back)

    def coordinates(self, w: WorldFunction, points) -> np.ndarray:
        """Covariant coordinates of points (..., d) as (..., n): scalar
        products of the basis vectors with the anchor-to-point vectors.
        w is the world the basis was built on."""
        pts = self.anchor.points
        points = np.asarray(points, dtype=float)[..., None, :]
        return self.back + w(pts[0], points) - w(pts[1:], points)

    def jacobian(self, w: WorldFunction, point) -> np.ndarray:
        """d x_i / dq at q = point, as (n, d): one stencil of the coordinate
        map, a value row per coordinate, stepped as at the pair (p0, point)."""
        return fd.partial_tensor(lambda _, q: np.moveaxis(self.coordinates(w, q), -1, 0),
                                 self.anchor.points[0], point, 0, 1)


def diagnostic_probes(dim: int, count: int = 24, seed: int = 13) -> np.ndarray:
    """Deterministic probe points staggered along the first coordinate with
    small transverse jitter, so that pairwise separations stay timelike for
    signature metrics (keeping clear of the screened family's pole)."""
    rng = np.random.default_rng(seed)
    probes = rng.normal(size=(count, dim)) * _PROBE_JITTER
    probes[:, 0] += _PROBE_TIME_STEP * np.arange(count)
    return probes


def euclideaness_check(w: WorldFunction, n: int, basis_points, probes,
                       seed: int = 0) -> DegeneracyReport:
    """Run the four flat-space conditions against a basis and probe set.

    Conditions I-III are residual checks at IDENTITY_THRESHOLD; condition IV
    reports 1 - (Newton solve success rate) over sampled coordinate targets,
    a sampled proxy for continuum solvability, passing only at rate one.
    The eigenvalue signs of the basis matrix classify a passing world as
    proper ('euclidean') or mixed-signature ('pseudo_euclidean').
    """
    basis = Multivector(np.asarray(basis_points, dtype=float))
    if basis.order != n:
        raise DimensionMismatchError(f"basis must contain {n + 1} points")
    pts = np.asarray(probes, dtype=float)
    if len(pts) == 0:
        raise ValueError("need at least one probe point")
    report = DegeneracyReport(world=w.kind)
    p0 = basis.points[0]
    to_p0 = w(pts, p0)  # the probes are checked before the basis
    fb = FlatBasis.build(w, basis)
    coords = fb.coordinates(w, pts)

    # I and III read one forward row w(q_i, others) per probe, never a pair
    # array, which would grow with the square of the probe count: I its
    # later part against one reversed call, III all of it
    asym = 0.0
    scale_sig = 1.0
    worst_recon = 0.0
    for i, q in enumerate(pts):
        others = np.delete(np.arange(len(pts)), i)  # no diagonal pair
        row = w(q, pts[others])
        fwd = row[i:]
        if len(fwd):
            asym = max([asym, *np.abs(parts(fwd, w(pts[i + 1:], q))[1]).tolist()])
            scale_sig = max([scale_sig, *np.abs(fwd).tolist()])
        for k, truth in zip(others, row.tolist()):
            dx = coords[i] - coords[k]
            recon = 0.5 * float(dx @ fb.g_inv @ dx)
            worst_recon = max(worst_recon, abs(recon - truth) / (1.0 + abs(truth)))
    report.add("I_symmetry", asym / scale_sig, IDENTITY_THRESHOLD)

    # II: basis has nonzero squared length; basis+probe tuples have zero.
    # The Gram matrix of basis+q borders fb.g with q's coordinates (column),
    # w(q, p0) + w(p0, p_k) - w(q, p_k) (row) and w(q, p0) + w(p0, q)
    # (corner, where w(q, q) = 0 drops out)
    f_n = _det(fb.g)
    scale = max(np.abs(np.diag(fb.g)).tolist())  # the largest |2 sym(p0, p_k)|
    report.add("II_basis_nondegenerate",
               1.0 if abs(f_n) <= 1e-12 * scale**n else 0.0, 0.5)
    extended = np.empty((len(pts), n + 1, n + 1))
    extended[:, :n, :n] = fb.g
    extended[:, :n, n] = coords
    extended[:, n, :n] = (to_p0[:, None] + w(p0, basis.points[1:])
                          - w(pts[:, None, :], basis.points[1:]))
    extended[:, n, n] = to_p0 + w(p0, pts)
    worst = 0.0
    for m, two_sym in zip(extended, np.abs(extended[:, n, n]).tolist()):
        denom = abs(f_n) * (two_sym + scale)
        worst = max(worst, abs(_det(m)) / max(denom, 1e-300))
    report.add("II_dimension", worst, IDENTITY_THRESHOLD)
    report.add("III_reconstruction", worst_recon, IDENTITY_THRESHOLD)

    # IV: sampled solvability of the coordinate equations, by undamped
    # Newton on one stencil of the coordinate map per iteration
    rate = _coordinate_solve_rate(w, fb, coords, seed)
    report.add("IV_solvability", 1.0 - rate, 0.0)

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


def _coordinate_solve_rate(w, fb, coords, seed):
    """Fraction of coordinate targets reachable by undamped Newton on the
    coordinate equations; targets are drawn inside the sampled coordinate
    range."""
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
    scale = 1.0 + float(np.max(np.abs(fb.g)))
    for target in targets:
        x = p0 + rng.normal(scale=0.1, size=w.dim)
        ok = False
        try:
            for _ in range(50):
                if not np.all(np.isfinite(x)):
                    break
                r = fb.coordinates(w, x) - target
                if np.linalg.norm(r) <= 1e-9 * scale:
                    ok = True
                    break
                step = np.linalg.solve(fb.jacobian(w, x), -r)
                x = x + step
        except (GeometryError, FloatingPointError, np.linalg.LinAlgError):
            ok = False
        successes += ok
    return successes / _IV_TARGETS


def eta_triangle(w: WorldFunction, x, xp, y) -> float:
    """Cyclic sum of the antisymmetric part over a point triple; vanishes
    identically exactly when the antisymmetric part is linear with constant
    coefficients."""
    return float(w.asym(x, xp) + w.asym(xp, y) + w.asym(y, x))


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
    'nondegenerate'.
    """
    x = np.asarray(x, dtype=float)
    d = w.dim
    dirs = [np.eye(d)[i] for i in range(d)]
    dirs.append(np.ones(d) / np.sqrt(d))
    rng = np.random.default_rng(7)
    for _ in range(2):
        v = rng.normal(size=d)
        dirs.append(v / np.linalg.norm(v))

    report = DegeneracyReport(world=w.kind)
    scale = 1.0 + float(np.max(np.abs(x)))
    step = _DEGENERATION_DELTA * scale

    co = fd.part_tensors(w, x, x, [(2, 0), (1, 0), (0, 2)])
    cc_g = co["sym"][(2, 0)]  # coincidence metric
    try:
        g_inv = np.linalg.inv(cc_g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError("coincidence metric singular") from exc
    a_co = co["asym"][(1, 0)]
    sigma_f = co["full"][(2, 0)]
    sigma_p = co["full"][(0, 2)]

    grad_cancel = 0.0
    eikonal = 0.0
    fut = 0.0
    past = 0.0
    for e in dirs:
        defects = []
        # the outer separation also carries the directed-tube Hessian
        outer = fd.part_tensors(w, x + step * e, x, [(0, 0), (0, 1), (0, 2)])
        inner = fd.part_tensors(w, x + step / 10.0 * e, x, [(0, 0), (0, 1)])
        for dlt, t in ((step, outer), (step / 10.0, inner)):
            a_grad = t["asym"][(0, 1)]
            grad_cancel = max(
                grad_cancel,
                abs(float((a_grad + a_co) @ e)) / (dlt * (1.0 + np.linalg.norm(a_co))),
            )
            g_grad = t["sym"][(0, 1)]
            two_g = 2.0 * float(t["sym"][(0, 0)])
            if two_g != 0.0:
                defects.append(
                    (float(g_grad @ g_inv @ g_grad) - two_g) / two_g
                )
        if len(defects) == 2:
            # Richardson step toward zero separation assuming quadratic decay
            extrap = (100.0 * defects[1] - defects[0]) / 99.0
            eikonal = max(eikonal, abs(extrap))

        # directed-tube second-order conditions at the outer separation
        two_g = 2.0 * float(outer["sym"][(0, 0)])
        g_grad = outer["sym"][(0, 1)]
        a_hess = outer["asym"][(0, 2)]
        with np.errstate(over="ignore"):  # an anchor far out in the chart
            norm = abs(two_g) * (1.0 + np.linalg.norm(g_grad))
        if norm == np.inf:
            raise FloatingPointError("tube-condition scale overflows at this anchor")
        fut_val = (two_g * float(e @ (a_hess - sigma_p) @ e)
                   + float(g_grad @ e) ** 2)
        past_val = (two_g * float(e @ (a_hess + sigma_f) @ e)
                    - float(g_grad @ e) ** 2)
        fut = max(fut, abs(fut_val) / max(norm, 1e-300))
        past = max(past, abs(past_val) / max(norm, 1e-300))

    report.add("neutral_gradient_cancel", grad_cancel, IDENTITY_THRESHOLD)
    report.add("eikonal", eikonal, EIKONAL_THRESHOLD)
    report.add("future_tube", fut, IDENTITY_THRESHOLD)
    report.add("past_tube", past, IDENTITY_THRESHOLD)

    neutral_ok = (report["neutral_gradient_cancel"].verdict
                  and report["eikonal"].verdict)
    report.summary = {
        "neutral": "degenerate" if neutral_ok else "nondegenerate",
        "future": "degenerate" if (neutral_ok and report["future_tube"].verdict)
        else "nondegenerate",
        "past": "degenerate" if (neutral_ok and report["past_tube"].verdict)
        else "nondegenerate",
    }
    report.notes.append(
        "second-order directed-tube conditions evaluated at finite "
        "separation with coincidence brackets taken at the anchor point; "
        "the quadratic product term enters with the sign that makes the "
        "flat symmetric case degenerate"
    )
    return report
