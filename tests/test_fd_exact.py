"""Finite-difference error budgets measured against exact derivatives.

Every shipped family is a function W of xi = x - xp alone, so its mixed
partial tensor of order (a, b) is t_(a,b) = (-1)^b d^(a+b) W / dxi^(a+b).
sympy differentiates the closed forms (tests only; it is no runtime
dependency), and the worst relative error of fd.partial_tensors over a
coincident and a separated anchor is held to a budget per family and total
derivative order.  The error is max |fd - exact| / max(1, max |exact|) over
the tensors of that order.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from tgeom import fd

from conftest import MINKOWSKI, random_a3, world

sympy = pytest.importorskip("sympy")

X0 = np.array([0.2, -0.1, 0.3, 0.05])
XP0 = np.array([0.5, 0.2, -0.1, 0.1])
ANCHORS = ((X0, X0), (X0, XP0))
ORDERS = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (2, 2), (3, 1)]

# the conftest worlds: (family, spec parameters)
FAMILIES = {
    "euclidean": {},
    "constant_a": {"b": [0.3, 0.1, 0.0, 0.0]},
    "case1": {"b": [1, 0, 0, 0], "alpha": 0.2},
    "case2": {"b": [1, 0, 0, 0], "alpha": 0.2, "beta": 1.0},
    "cubic_a": {"a3": random_a3(seed=0).ravel().tolist()},
}

# Worst relative error per total order 1..4, as (budget, measured, measured
# with the 4-point first-derivative rule on every multiplicity-1 axis of
# the order-2 to order-4 stencils).  Order 1 keeps that rule on every
# family, and order 2 on case2, so there the two figures are one; the
# order-4 worst case is the separated anchor.  On the four polynomial
# families (all but case2) orders 2 to 4 take the 2-point rule and one
# step bounded by rounding alone (fd._POLY_STEP), and read round-off.
BUDGETS = {
    "euclidean": ((5e-14, 1.2e-14, 1.2e-14), (2e-15, 1.3e-15, 1.3e-15),
                  (5e-14, 2.5e-14, 2.8e-14), (5e-13, 1.8e-13, 1.8e-13)),
    "constant_a": ((1e-13, 1.7e-14, 1.7e-14), (1e-14, 2.7e-15, 1.8e-15),
                   (2e-13, 3.9e-14, 5.7e-14), (2e-12, 4.5e-13, 4.5e-13)),
    "case1": ((1e-13, 3.1e-14, 3.1e-14), (2e-14, 4.6e-15, 4.6e-15),
              (1e-13, 3.0e-14, 4.4e-14), (2e-12, 5.7e-13, 5.7e-13)),
    "case2": ((1e-11, 3.9e-12, 3.9e-12), (5e-8, 1.8e-8, 1.8e-8),
              (5e-5, 1.8e-5, 1.8e-5), (1e-3, 4.7e-4, 2.8e-4)),
    "cubic_a": ((5e-14, 1.1e-14, 1.1e-14), (2e-15, 1.2e-15, 1.4e-15),
                (1e-13, 2.3e-14, 2.2e-14), (5e-13, 2.1e-13, 2.1e-13)),
}


# The Newton Jacobians (second_order=True: the 2-point rule on every
# first-derivative axis, and the seven-point rule on the off-diagonal
# entries): worst relative error of the (1, 1) and the (0, 2) tensor, as
# (budget, measured).
JACOBIAN_BUDGETS = {
    "euclidean": ((2e-15, 8.9e-16), (5e-15, 8.9e-16)),
    "constant_a": ((5e-15, 2.7e-15), (5e-15, 1.8e-15)),
    "case1": ((1e-14, 4.6e-15), (2e-14, 4.6e-15)),
    "case2": ((2e-7, 4.0e-8), (1e-7, 3.0e-8)),
    "cubic_a": ((2e-15, 8.8e-16), (5e-15, 1.2e-15)),
}


# The degeneration check (tgeom.degeneracy.degeneration_check) reads its
# tensors with second_order=True: the value and gradient at the separated
# anchor, and the (1, 0) gradient and (2, 0) and (0, 2) Hessians at
# coincidence.  The value and gradients are held to DEGENERATION_BUDGETS,
# as (budget, measured) for (0, 0), (0, 1) and (1, 0).  The gradients lose
# the fourth-order rule's accuracy only where the antisymmetric part has a
# third derivative (case1, case2, cubic_a), and there the check adds a_co
# to a_grad, whose truncation errors cancel to the order of the separation.
DEGENERATION_BUDGETS = {
    "euclidean": ((1e-15, 0.0), (2e-14, 9.9e-15), (1e-14, 0.0)),
    "constant_a": ((1e-15, 0.0), (2e-14, 5.7e-15), (1e-14, 2.9e-15)),
    "case1": ((1e-15, 5.6e-17), (5e-7, 2.5e-7), (5e-7, 1.9e-7)),
    "case2": ((1e-15, 5.6e-17), (1e-6, 2.8e-7), (5e-7, 1.5e-7)),
    "cubic_a": ((1e-15, 1.4e-17), (5e-8, 1.4e-8), (5e-8, 1.1e-8)),
}

# The coincidence Hessians are near the unit-sized metric, where a budget
# on |fd - exact| tight enough to tell a rule would sit below one ulp.  So
# each is checked twice against S, the exact sum (fractions.Fraction) of its
# stencil's weighted values over h^2, rebuilt from fd._tensor_entries and
# fd.step_size.  (a) fd's value rounds S as a k-term sum of weighted values
# divided by h^2 may, in any order: within gamma_(k+1) sum |w_j f_j| / h^2,
# gamma_n = n u / (1 - n u), u = eps / 2 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 2002, ch. 3-4); measured at up to 18% of
# that bound.  (b) S is the exact derivative to within HESSIAN_RULE_BUDGETS,
# as (budget, measured): the rule's own error.  On these families the off-diagonal entries are 0
# at coincidence, whatever the sign of the seven-point rule's (u, v) term;
# the separated Jacobian budgets above and tests/test_fd.py's naive
# reference hold that rule.
HESSIAN_RULE_BUDGETS = {
    "euclidean": ((5e-16, 0.0), (5e-16, 0.0)),
    "constant_a": ((1e-15, 2.1e-16), (1e-15, 2.1e-16)),
    "case1": ((2e-15, 6.2e-16), (2e-15, 6.2e-16)),
    "case2": ((2e-12, 7.8e-13), (2e-12, 7.8e-13)),
    "cubic_a": ((5e-16, 0.0), (5e-16, 0.0)),
}


def _closed_form(family, xi):
    """W(xi) of a family, with the conftest parameters and Minkowski metric."""
    params = FAMILIES[family]
    sq = sum(g * v * v for g, v in zip(MINKOWSKI, xi))
    quad = sq / 2
    if family == "euclidean":
        return quad
    if family == "cubic_a":
        a3 = np.asarray(params["a3"]).reshape(4, 4, 4)
        return quad + sum(a3[i, k, l] * xi[i] * xi[k] * xi[l]
                          for i in range(4) for k in range(4) for l in range(4)) / 6
    bxi = sum(b * v for b, v in zip(params["b"], xi))
    if family == "constant_a":
        return bxi + quad
    if family == "case1":
        return bxi * (1 + params["alpha"] * sq) + quad
    return bxi * (1 + params["alpha"] / (1 + params["beta"] * sq)) + quad


@lru_cache(maxsize=None)
def _derivatives(family, order):
    """d^order W / dxi^..., one lambdified function per sorted index tuple."""
    xi = sympy.symbols("xi0:4")
    w = _closed_form(family, xi)
    return {combo: sympy.lambdify(xi, sympy.diff(w, *(xi[i] for i in combo)) if combo else w,
                                  "numpy")
            for combo in combinations_with_replacement(range(4), order)}


def exact_tensor(family, x, xp, nx, npr):
    xi = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
    out = np.zeros((4,) * (nx + npr))
    for combo, fn in _derivatives(family, nx + npr).items():
        value = (-1) ** npr * float(fn(*xi))
        for idx in set(permutations(combo)):
            out[idx] = value
    return out


def stencil_sums(w, x, xp, key):
    """The second_order order-2 key tensor of w at (x, xp) entry by entry on
    fd's stencils and step, as Fractions: the exact sum S of the weighted
    values over h^2, and the rounding bound of fd's value
    (HESSIAN_RULE_BUDGETS)."""
    d = len(x)
    step = fd.step_size(w, 2, x, xp)
    h2 = Fraction(np.float64(step) ** 2)  # the double that fd divides by
    exact, bound = np.empty((d, d), dtype=object), np.empty((d, d), dtype=object)
    for offs_x, offs_xp, unit, targets in fd._tensor_entries(d, *key, 1):
        terms = [Fraction(u) * Fraction(v) for u, v in
                 zip(unit.tolist(), w(x + step * offs_x, xp + step * offs_xp).tolist())]
        n_u = Fraction(len(terms) + 1) * Fraction(np.finfo(float).eps) / 2
        for idx in targets:
            exact[idx] = sum(terms) / h2
            bound[idx] = n_u / (1 - n_u) * sum(map(abs, terms)) / h2
    return exact, bound


def worst_errors(family):
    """Worst relative error per total order 1..4 over both anchors."""
    w = world(family, **FAMILIES[family])
    worst = [0.0] * 4
    for x, xp in ANCHORS:
        got = fd.partial_tensors(w, x, xp, ORDERS)
        for nx, npr in ORDERS:
            want = exact_tensor(family, x, xp, nx, npr)
            err = np.max(np.abs(got[(nx, npr)] - want)) / max(1.0, np.max(np.abs(want)))
            worst[nx + npr - 1] = max(worst[nx + npr - 1], float(err))
    return worst


def test_exact_tensors_match_mixed_signs():
    # t_(1,1) of the quadratic form is -g: the primed slot carries the sign
    assert np.array_equal(exact_tensor("euclidean", X0, XP0, 1, 1), -np.diag(MINKOWSKI))
    assert np.array_equal(exact_tensor("euclidean", X0, XP0, 2, 0), np.diag(MINKOWSKI))


@pytest.mark.parametrize("family", FAMILIES)
def test_fd_error_within_budget(family):
    worst = worst_errors(family)
    for order, (err, budget) in enumerate(zip(worst, (b[0] for b in BUDGETS[family])), start=1):
        assert err <= budget, (family, order, err)


@pytest.mark.parametrize("family", FAMILIES)
def test_jacobian_stencils_within_budget(family):
    w = world(family, **FAMILIES[family])
    for key, (budget, _) in zip([(1, 1), (0, 2)], JACOBIAN_BUDGETS[family]):
        for x, xp in ANCHORS:
            got = fd.partial_tensor(w, x, xp, *key, second_order=True)
            want = exact_tensor(family, x, xp, *key)
            err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
            assert err <= budget, (family, key, err)


@pytest.mark.parametrize("family", FAMILIES)
def test_degeneration_stencils_within_budget(family):
    w = world(family, **FAMILIES[family])
    budgets = iter(DEGENERATION_BUDGETS[family] + HESSIAN_RULE_BUDGETS[family])
    for (x, xp), keys in (((X0, XP0), [(0, 0), (0, 1)]), ((X0, X0), [(1, 0), (2, 0), (0, 2)])):
        got = fd.partial_tensors(w, x, xp, keys, second_order=True)
        for key, (budget, _) in zip(keys, budgets):
            want = exact_tensor(family, x, xp, *key)
            if sum(key) < 2:
                err = np.max(np.abs(got[key] - want)) / max(1.0, np.max(np.abs(want)))
                assert err <= budget, (family, key, err)
                continue
            exact, bound = stencil_sums(w, x, xp, key)
            for value, s, b in zip(got[key].ravel().tolist(), exact.ravel(), bound.ravel()):
                assert abs(Fraction(value) - s) <= b, (family, key, "(a)", value)
            err = max(abs(s - Fraction(v)) for s, v in zip(exact.ravel(), want.ravel().tolist()))
            err /= max(1.0, np.max(np.abs(want)))
            assert err <= budget, (family, key, "(b)", float(err))
