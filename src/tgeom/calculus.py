"""Finite-difference two-point tensor calculus on the chart.

Index conventions used throughout (documented once here):

* Derivative tensors store unprimed (first-argument) indices first, then
  primed (second-argument) indices, each group in differentiation order.
  ``t = partial (2, 1)`` means t[k, l, s] = d^3 w / dx^k dx^l dxp^s.
* The covariant fundamental metric is the mixed second derivative
  S[i, k] = d^2 w / dx^i dxp^k; the contravariant one is V = inv(S.T), so
  that sum_k V[i, k] S[l, k] = delta_il and sum_k V[k, i] S[k, l] = delta_il.
* Christoffel-like arrays are indexed [upper, lower1, lower2].
* Curvature arrays r[l, s, i, k] hold the component with upper index l,
  first lower s, and antisymmetric pair (i, k).

Coincidence limits are taken by centering every stencil at xp = x exactly;
all shipped world families are smooth there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fd
from .worlds import WorldFunction, _inv

#: Feature gate for fourth-order objects (curvature bundle); tolerances on
#: those checks are relaxed because FD noise grows with derivative order.
CURVATURE_TOLERANCE = 5e-4


def _tensors(w: WorldFunction, x, xp, orders, part: str) -> dict:
    """Tensors of one part of w; the full world alone needs no reversed call."""
    if part == "full":
        return fd.partial_tensors(w, x, xp, orders)
    if part in ("sym", "asym"):
        return fd.part_tensors(w, x, xp, orders)[part]
    raise ValueError(f"unknown world-function part {part!r}")


# ---------------------------------------------------------------------------
# Fundamental metrics and Christoffel symbols
# ---------------------------------------------------------------------------


@dataclass
class FundamentalMetric:
    """Mixed second derivatives of the world function (cov) and the inverse
    satisfying sum_k contra[i, k] cov[l, k] = delta (likewise for the
    symmetric part)."""

    cov: np.ndarray
    contra: np.ndarray
    g_cov: np.ndarray
    g_contra: np.ndarray


def fundamental_metric(w: WorldFunction, x, xp) -> FundamentalMetric:
    t = fd.part_tensors(w, np.asarray(x, float), np.asarray(xp, float), [(1, 1)])
    cov, g_cov = t["full"][(1, 1)], t["sym"][(1, 1)]
    contra = _inv(cov.T, "covariant fundamental metric").T
    g_contra = _inv(g_cov.T, "symmetric covariant fundamental metric").T
    return FundamentalMetric(cov, contra, g_cov, g_contra)


@dataclass
class ChristoffelSet:
    """Two-point Christoffel symbols, each indexed [upper, lower1, lower2].

    tilde_x / tilde_xp derive from the full world function (unprimed /
    primed anchor); g_x / g_xp from its symmetric part.
    """

    tilde_x: np.ndarray
    tilde_xp: np.ndarray
    g_x: np.ndarray
    g_xp: np.ndarray


def christoffels(w: WorldFunction, x, xp) -> ChristoffelSet:
    parts = fd.part_tensors(w, np.asarray(x, float), np.asarray(xp, float),
                            [(1, 1), (2, 1), (1, 2)])
    symbols = []  # tilde_x, tilde_xp, g_x, g_xp
    for part in ("full", "sym"):
        t = parts[part]
        v = _inv(t[(1, 1)].T, f"{part} fundamental metric").T
        # upper index from contraction with the contravariant metric
        symbols += [np.einsum("is,kls->ikl", v, t[(2, 1)]),
                    np.einsum("si,skl->ikl", v, t[(1, 2)])]
    return ChristoffelSet(*symbols)


def _symbol_and_derivative(t: dict):
    """Unprimed-anchor Christoffel symbol [i, k, l] and its derivative
    [i, k, l, m] from the (1,1), (2,1), (3,1) tensors of one part."""
    s = t[(1, 1)]
    v = _inv(s.T, "fundamental metric").T
    t21 = t[(2, 1)]
    t31 = t[(3, 1)]
    # dS/dx^m has entries d^3 w / dx^k dx^m dxp^q = t21[k, m, q]
    # V S^T = I  =>  dV/dx^m = -V (dS/dx^m)^T V
    dv = -np.einsum("iq,kmq,ks->ism", v, t21, v)
    return (np.einsum("is,kls->ikl", v, t21),
            np.einsum("ism,kls->iklm", dv, t21) + np.einsum("is,klms->iklm", v, t31))


def flat_curvature_defect(w: WorldFunction, x, xp, part: str = "full") -> np.ndarray:
    """Curvature built from the unprimed-anchor two-point Christoffel symbol
    of the full world (part "full") or of its symmetric part ("sym").

    Vanishes identically for every world function (the two-point connection
    is flat); the returned riemann_from_gamma array measures the numerical
    defect.  One stencil pass of the chosen part serves the symbol and its
    derivative.
    """
    return riemann_from_gamma(*_symbol_and_derivative(
        _tensors(w, np.asarray(x, float), np.asarray(xp, float), [(1, 1), (2, 1), (3, 1)], part)))


# ---------------------------------------------------------------------------
# Coincidence-limit coefficients
# ---------------------------------------------------------------------------


@dataclass
class CoincidenceCoefficients:
    """One-point fields extracted at xp = x.

    g_tilde_inv follows the first-index contraction convention:
    sum_i g_tilde_inv[i, l] g_tilde[i, k] = delta_lk.
    """

    x: np.ndarray
    a: np.ndarray | None     # coincidence gradient of the antisymmetric part
                             # (None in a curvature bundle, which reads none)
    g: np.ndarray            # metric tensor
    g_inv: np.ndarray
    g_tilde: np.ndarray      # metric from the mixed second derivative
    g_tilde_inv: np.ndarray
    sigma_f: np.ndarray      # unprimed-unprimed second derivative (not a tensor)
    sigma_p: np.ndarray      # primed-primed second derivative (not a tensor)
    gamma: np.ndarray        # Christoffel of the symmetric part
    beta: np.ndarray         # antisymmetric force tensor
    gamma_tilde_f: np.ndarray
    gamma_tilde_p: np.ndarray
    a3: np.ndarray           # third-order antisymmetry coefficients
    g3: np.ndarray           # third-order symmetric expansion coefficients
    a_hess: np.ndarray       # a_{i,kl}
    g_grad: np.ndarray       # g_{ik,l}


_COEFFICIENT_ORDERS = [(1, 0), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2)]

# future / past mixing matrices g_tilde_inv . g (contracted on the first or
# the second index of g_tilde_inv) and the sign of beta each one carries
_MIXING = (("is,ps->ip", 1.0), ("si,ps->ip", -1.0))


def _lowered(g_grad: np.ndarray) -> np.ndarray:
    """[k,s,l]-indexed g_{ks,l} + g_{sl,k} - g_{lk,s}; trailing axes ride along."""
    return g_grad + np.einsum("slk...->ksl...", g_grad) - np.einsum("lks...->ksl...", g_grad)


def _force_source(a3: np.ndarray, a_hess: np.ndarray) -> np.ndarray:
    """a_{kls} - (a_{k,ls} + a_{l,ks})/2, indexed [k,l,s]; trailing axes ride along."""
    return a3 - 0.5 * (a_hess + np.einsum("lks...->kls...", a_hess))


def _a_hess(t30, t21, t12) -> np.ndarray:
    """a_{i,kl} by the two-slot chain rule from the (3,0), (2,1), (1,2) tensors
    of the antisymmetric part (or their diagonal derivatives)."""
    return t30 + t21 + np.swapaxes(t21, 1, 2) + t12


def _coefficients_from(x: np.ndarray, t: dict, a: np.ndarray | None) -> CoincidenceCoefficients:
    """The one-point fields from part tensors taken at xp = x (keys of
    _COEFFICIENT_ORDERS but (1, 0), per part as fd.part_tensors returns
    them) and the coincidence gradient a, which no other field reads."""
    sig, gpart, apart = t["full"], t["sym"], t["asym"]

    g = gpart[(2, 0)]
    g3 = gpart[(3, 0)]
    a3 = apart[(3, 0)]
    sigma_f = sig[(2, 0)]
    sigma_p = sig[(0, 2)]
    g_tilde = -sig[(1, 1)]

    g_inv = _inv(g, "coincidence metric")
    g_tilde_inv = _inv(g_tilde, "mixed coincidence metric").T

    # one-point field derivatives via the two-slot chain rule
    g_grad = gpart[(3, 0)] + gpart[(2, 1)]                   # g_{ik,l}
    a_hess = _a_hess(apart[(3, 0)], apart[(2, 1)], apart[(1, 2)])

    gamma = 0.5 * np.einsum("si,ksl->ikl", g_inv, _lowered(g_grad))
    beta = np.einsum("si,kls->ikl", g_inv, _force_source(a3, a_hess))

    gamma_tilde_f, gamma_tilde_p = (
        np.einsum("ip,pkl->ikl", np.einsum(spec, g_tilde_inv, g), gamma + sign * beta)
        for spec, sign in _MIXING)

    return CoincidenceCoefficients(
        x=x, a=a, g=g, g_inv=g_inv, g_tilde=g_tilde, g_tilde_inv=g_tilde_inv,
        sigma_f=sigma_f, sigma_p=sigma_p, gamma=gamma, beta=beta,
        gamma_tilde_f=gamma_tilde_f, gamma_tilde_p=gamma_tilde_p,
        a3=a3, g3=g3, a_hess=a_hess, g_grad=g_grad,
    )


def coincidence_coefficients(w: WorldFunction, x) -> CoincidenceCoefficients:
    """Extract the one-point fields at x by coincidence-centered stencils.

    Derivatives of the one-point fields (needed for the Christoffel and
    force tensors) are obtained by the chain rule over both argument slots,
    e.g. d/dx^l of [G_,ik] is [G_,ikl] + [G_,ikl'] -- direct stencils only.
    """
    x = np.asarray(x, dtype=float)
    t = fd.part_tensors(w, x, x, _COEFFICIENT_ORDERS)
    return _coefficients_from(x, t, t["asym"][(1, 0)])


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------

TRANSPORT_SPACES = ("tilde_xprime", "tilde_x", "g_xprime", "g_x")


def transport_matrix(w: WorldFunction, space: str, x, xp) -> np.ndarray:
    """Parallel-transport matrix for covectors in the selected flat space.

    tilde_xprime / g_xprime carry a covector given at xp to x (anchor xp);
    tilde_x / g_x carry a covector given at x to xp (anchor x).  At x = xp
    every transport reduces to the identity.
    """
    if space not in TRANSPORT_SPACES:
        raise ValueError(f"unknown transport space {space!r}; expected one of {TRANSPORT_SPACES}")
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    part = "full" if space.startswith("tilde") else "sym"
    s = _tensors(w, x, xp, [(1, 1)], part)[(1, 1)]
    anchor, s = (xp, s) if space.endswith("xprime") else (x, s.T)
    metric = _tensors(w, anchor, anchor, [(1, 1)], part)[(1, 1)]
    return s @ _inv(metric, "anchor fundamental metric")


# ---------------------------------------------------------------------------
# Curvature machinery
# ---------------------------------------------------------------------------


_F_ORDERS = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _f_from(t: dict) -> np.ndarray:
    v = _inv(t[(1, 1)].T, "fundamental metric").T
    return t[(2, 2)] - np.einsum("sjk,sm,ilm->ilkj", t[(1, 2)], v, t[(2, 1)])


def f_tensor(w: WorldFunction, x, xp) -> np.ndarray:
    """Two-point curvature-like tensor F[i, l, k, j] (primed pair last) of
    the full world function.

    F = w_{,il k'j'} - w_{,s j'k'} V[s, m] w_{,il m'}; identically zero for
    flat symmetric worlds in rectilinear charts.
    """
    return _f_from(fd.partial_tensors(w, np.asarray(x, float), np.asarray(xp, float),
                                      _F_ORDERS))


def riemann_from_gamma(gamma: np.ndarray, gamma_derivs: np.ndarray) -> np.ndarray:
    """Curvature tensor r[l, s, i, k] from a connection and its derivatives.

    gamma is [upper, lower1, lower2] (symmetric in the lower pair);
    gamma_derivs is gamma.shape + (d,), last axis the derivative direction.

    r^l_{s.ik} = gamma^l_{si,k} - gamma^l_{sk,i}
                 + gamma^p_{si} gamma^l_{pk} - gamma^p_{sk} gamma^l_{pi}

    antisymmetric in the last index pair by construction.
    """
    gamma = np.asarray(gamma, dtype=float)
    gd = np.asarray(gamma_derivs, dtype=float)
    if gd.shape != gamma.shape + gamma.shape[:1]:
        raise ValueError("gamma_derivs must have shape gamma.shape + (d,)")
    if np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) > 1e-8 * (1.0 + np.max(np.abs(gamma))):
        raise ValueError("gamma must be symmetric in its lower indices")
    return (gd - gd.transpose(0, 1, 3, 2)
            + np.einsum("psi,lpk->lsik", gamma, gamma)
            - np.einsum("psk,lpi->lsik", gamma, gamma))


@dataclass
class CurvatureBundle:
    """Fourth-order curvature objects at a point (feature-gated)."""

    f_tilde_coincident: np.ndarray  # F of the full world function at coincidence
    f_coincident: np.ndarray        # F of the symmetric part at coincidence
    riemann: np.ndarray             # from gamma
    riemann_tilde_f: np.ndarray
    riemann_tilde_p: np.ndarray
    defects: dict


def _diagonal(t: dict, nx: int, npr: int) -> np.ndarray:
    """d/dx^m of the coincidence tensor t_(nx,npr)(x, x), m on a trailing axis:
    t_(nx+1,npr) with m in the unprimed group plus t_(nx,npr+1) with m in
    the primed group."""
    return np.moveaxis(t[(nx + 1, npr)], nx, -1) + t[(nx, npr + 1)]


def _product_rule(spec: str, *pairs) -> np.ndarray:
    """d/dx^m of np.einsum(spec, *values) from (value, derivative) pairs,
    each derivative carrying m on a trailing axis (m unused in spec)."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    total = 0.0
    for j, (_, deriv) in enumerate(pairs):
        subs = [s + "m" if i == j else s for i, s in enumerate(ins)]
        ops = [deriv if i == j else value for i, (value, _) in enumerate(pairs)]
        total = total + np.einsum(",".join(subs) + "->" + out + "m", *ops)
    return total


def _connection_derivatives(cc: CoincidenceCoefficients, t: dict):
    """d gamma, d gamma_tilde_f, d gamma_tilde_p at x, each [i, k, l, m]:
    the diagonal chain rule on the part tensors of t (orders up to four,
    taken at xp = x), then the product rule through the formulas of
    _coefficients_from."""
    sym, asym = t["sym"], t["asym"]
    d_g = cc.g_grad
    d_g_inv = -np.einsum("ia,abm,bj->ijm", cc.g_inv, d_g, cc.g_inv)
    # g_tilde_inv = inv(g_tilde).T with g_tilde = -t_full(1,1)
    d_g_tilde = -_diagonal(t["full"], 1, 1)
    d_g_tilde_inv = -np.einsum("ib,abm,aj->ijm", cc.g_tilde_inv, d_g_tilde, cc.g_tilde_inv)

    d_g_grad = _diagonal(sym, 3, 0) + _diagonal(sym, 2, 1)
    d_gamma = 0.5 * _product_rule("si,ksl->ikl", (cc.g_inv, d_g_inv),
                                  (_lowered(cc.g_grad), _lowered(d_g_grad)))
    d_a3 = _diagonal(asym, 3, 0)
    d_a_hess = _a_hess(d_a3, _diagonal(asym, 2, 1), _diagonal(asym, 1, 2))
    d_beta = _product_rule("si,kls->ikl", (cc.g_inv, d_g_inv),
                           (_force_source(cc.a3, cc.a_hess), _force_source(d_a3, d_a_hess)))

    out = [d_gamma]
    for spec, sign in _MIXING:
        mixed = np.einsum(spec, cc.g_tilde_inv, cc.g)
        d_mixed = _product_rule(spec, (cc.g_tilde_inv, d_g_tilde_inv), (cc.g, d_g))
        out.append(_product_rule("ip,pkl->ikl", (mixed, d_mixed),
                                 (cc.gamma + sign * cc.beta, d_gamma + sign * d_beta)))
    return out


#: the orders of the curvature bundle's request besides F's: those of
#: _coefficients_from but a's (1, 0), and the fourth-order ones of
#: _connection_derivatives
_CURVATURE_ORDERS = [(2, 0), (0, 2), (3, 0), (4, 0), (3, 1), (1, 3)]


def curvature_bundle(w: WorldFunction, x) -> CurvatureBundle:
    """Assemble coincidence curvature tensors and their consistency defects.

    Every field comes from direct coincidence stencils, with no nested
    differencing: one fd.part_tensors pass at xp = x over the orders of F
    and the remaining orders up to four but a's (1, 0), which no field of
    the bundle reads: one world call over 2,993 unique points at d=4, 1,937
    on a polynomial world.  The connections gamma,
    gamma_tilde_f and gamma_tilde_p are exactly coincidence_coefficients';
    their derivatives follow from the chain rule along the diagonal,
    d/dx^m t_(a,b)(x, x) = t_(a+1,b) + t_(a,b+1) with m joining the unprimed
    or the primed group, and the product rule through g_inv, g_tilde_inv
    and the future/past mixing matrices.

    Defects, relative to w.unit + max |F| of both parts (small for the shipped worlds):
      pair_symmetry       in-group index symmetry of the coincident tensor
      block_swap          swap of the unprimed and primed pairs
      mixed_relation      metric-contracted relation between the curvature
                          from gamma and the coincident F of the symmetric part
      tilde_relation_f    alternated coincident F vs curvature of gamma_tilde_f
      tilde_relation_p    same with the opposite contraction side (gamma_tilde_p)
    """
    x = np.asarray(x, dtype=float)
    t = fd.part_tensors(w, x, x, _F_ORDERS + _CURVATURE_ORDERS)
    f_tilde_co, f_co = _f_from(t["full"]), _f_from(t["sym"])

    cc = _coefficients_from(x, t, None)
    d_gamma, d_gamma_f, d_gamma_p = _connection_derivatives(cc, t)
    r = riemann_from_gamma(cc.gamma, d_gamma)
    r_f = riemann_from_gamma(cc.gamma_tilde_f, d_gamma_f)
    r_p = riemann_from_gamma(cc.gamma_tilde_p, d_gamma_p)

    scale = w.unit + float(np.max(np.abs(f_co)) + np.max(np.abs(f_tilde_co)))
    alternated = f_tilde_co - f_tilde_co.transpose(0, 2, 1, 3)
    defects = {
        "pair_symmetry": float(max(
            np.max(np.abs(f_tilde_co - f_tilde_co.transpose(1, 0, 2, 3))),
            np.max(np.abs(f_tilde_co - f_tilde_co.transpose(0, 1, 3, 2))),
        ) / scale),
        "block_swap": float(
            np.max(np.abs(f_tilde_co - f_tilde_co.transpose(2, 3, 0, 1))) / scale
        ),
        # g_lp r^l_{s.ik} = -f_{ispk} + f_{kspi}
        "mixed_relation": float(np.max(np.abs(
            np.einsum("lp,lsik->psik", cc.g, r)
            + np.einsum("ispk->psik", f_co)
            - np.einsum("kspi->psik", f_co)
        )) / scale),
        # alternated coincident F vs the curvature of gamma_tilde_f:
        # f[i,l,k,j] - f[i,k,l,j] = gtilde[p,j] r_f[p,i,k,l]
        "tilde_relation_f": float(np.max(np.abs(
            alternated - np.einsum("pj,pikl->ilkj", cc.g_tilde, r_f))) / scale),
        # f[i,l,k,j] - f[i,k,l,j] = gtilde[l,p] r_p[p,k,i,j]
        "tilde_relation_p": float(np.max(np.abs(
            alternated - np.einsum("lp,pkij->ilkj", cc.g_tilde, r_p))) / scale),
    }
    return CurvatureBundle(
        f_tilde_coincident=f_tilde_co,
        f_coincident=f_co,
        riemann=r,
        riemann_tilde_f=r_f,
        riemann_tilde_p=r_p,
        defects=defects,
    )
