import dataclasses

import numpy as np
import pytest

from tgeom import (
    SingularMetricError,
    christoffels,
    coincidence_coefficients,
    curvature_bundle,
    f_tensor,
    flat_curvature_defect,
    fundamental_metric,
    riemann_from_gamma,
    transport_matrix,
    WorldFunction,
    world_from_callable,
)
from tgeom.calculus import (
    _connection_derivatives,
    _coefficients_from,
    _CURVATURE_ORDERS,
    _F_ORDERS,
)
from tgeom import calculus, fd
from conftest import world, _WARP

MINK = np.diag([1.0, -1.0, -1.0, -1.0])
X0 = np.array([0.2, -0.1, 0.3, 0.05])
XP0 = np.array([0.5, 0.2, -0.1, 0.1])


# ---------------------------------------------------------------------------
# part tensors
# ---------------------------------------------------------------------------

FIRST = [(1, 0), (0, 1)]
SECOND = FIRST + [(2, 0), (1, 1), (0, 2)]
THIRD = SECOND + [(3, 0), (2, 1), (1, 2), (0, 3)]


def swap_defects(w, x, xp, tensors):
    """First derivatives against the argument-swapped evaluation: the
    symmetric part must agree, the antisymmetric part must negate."""
    rev = fd.part_tensors(w, xp, x, [(0, 1)])
    return {
        "sym_swap": float(np.max(np.abs(tensors["sym"][(1, 0)] - rev["sym"][(0, 1)]))),
        "asym_swap": float(np.max(np.abs(tensors["asym"][(1, 0)] + rev["asym"][(0, 1)]))),
    }


def test_mixed_second_is_minus_metric(minkowski):
    tensors = fd.part_tensors(minkowski, X0, XP0, SECOND)
    assert np.max(np.abs(tensors["full"][(1, 1)] + MINK)) < 1e-8
    defects = swap_defects(minkowski, X0, XP0, tensors)
    assert defects["sym_swap"] < 1e-12
    assert defects["asym_swap"] < 1e-12


def test_first_derivative_at_coincidence(case1):
    tensors = fd.part_tensors(case1, X0, X0, FIRST)
    assert np.max(np.abs(tensors["full"][(1, 0)] - np.array([1, 0, 0, 0]))) < 1e-10
    assert np.max(np.abs(tensors["full"][(0, 1)] + np.array([1, 0, 0, 0]))) < 1e-10


def test_third_derivative_of_cubic_part(cubic):
    a3 = np.asarray(cubic.spec.a3)
    tensors = fd.part_tensors(cubic, X0, X0, THIRD)
    assert np.max(np.abs(tensors["asym"][(3, 0)] - a3)) < 1e-6


def field_derivative(field, x):
    """Fourth-order central derivative of an array-valued one-point field,
    differentiating axis last: the independent nested-difference reference
    for the direct coincidence stencils."""
    x = np.asarray(x, dtype=float)
    step = np.finfo(float).eps ** 0.2 * (1.0 + np.max(np.abs(x)))
    columns = []
    for axis in range(x.shape[-1]):
        acc = None
        for node, wt in zip((-2.0, -1.0, 1.0, 2.0), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0):
            p = x.copy()
            p[axis] += step * node
            val = wt * np.asarray(field(p), dtype=float)
            acc = val if acc is None else acc + val
        columns.append(acc / step)
    return np.stack(columns, axis=-1)


PART_ORDERS = [(nx, npr) for nx in range(3) for npr in range(3)]


@pytest.mark.parametrize("anchor", ["coincidence", "separated"])
def test_part_tensors_match_per_part_passes(all_worlds, anchor):
    # one two-call pass reproduces the separate w / w.sym / w.asym passes;
    # each part is wrapped with w's spec so that its steps are w's
    xp = X0 if anchor == "coincidence" else XP0
    for name, w in all_worlds.items():
        parts = fd.part_tensors(w, X0, xp, PART_ORDERS)
        for part, fn in (("full", w), ("sym", w.sym), ("asym", w.asym)):
            want = fd.partial_tensors(WorldFunction(fn, w.dim, spec=w.spec), X0, xp, PART_ORDERS)
            for key in PART_ORDERS:
                assert np.array_equal(parts[part][key], want[key]), (name, part, key)


def _counted(w, dim):
    """w wrapped to record the number of points of every call."""
    calls = []

    def counted(a, b):
        calls.append(np.asarray(a).shape[0])
        return w(a, b)

    return world_from_callable(counted, dim), calls


def test_coincidence_coefficients_world_points(cubic):
    # one part pass at coincidence: one world call over the 1,057 unique
    # stencil points at d=4, the swapped pairs included
    w, points = _counted(cubic, 4)
    coincidence_coefficients(w, X0)
    assert points == [1057]


def test_symmetry_defects_exact(all_worlds):
    for name, w in all_worlds.items():
        defects = swap_defects(w, X0, XP0, fd.part_tensors(w, X0, XP0, FIRST))
        assert defects == {"sym_swap": 0.0, "asym_swap": 0.0}, name


def test_eikonal_identity_euclidean():
    # flat symmetric world: the gradient square reproduces the separation
    w = world("euclidean", dim=4, metric=[1, 1, 1, 1])
    g_inv = np.eye(4)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        x, xp = rng.normal(size=(2, 4))
        if 2.0 * w.sym(x, xp) < 0.2:
            continue
        grad = fd.partial_tensor(w.sym, x, xp, 1, 0)
        lhs = float(grad @ g_inv @ grad)
        rhs = 2.0 * float(w(x, xp))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# fundamental metrics / christoffels
# ---------------------------------------------------------------------------

def test_fundamental_metric_euclidean(minkowski):
    fm = fundamental_metric(minkowski, X0, XP0)
    assert np.max(np.abs(fm.cov + MINK)) < 1e-8
    assert np.max(np.abs(fm.contra + MINK)) < 1e-7


def test_fundamental_metric_inverse_identity(case2):
    # inversion self-test far from coincidence
    fm = fundamental_metric(case2, X0, XP0 + np.array([2.0, 0, 0, 0]))
    ident = np.einsum("ik,lk->il", fm.contra, fm.cov)
    assert np.max(np.abs(ident - np.eye(4))) < 1e-8
    ident_g = np.einsum("ik,lk->il", fm.g_contra, fm.g_cov)
    assert np.max(np.abs(ident_g - np.eye(4))) < 1e-8


def test_fundamental_metric_coincidence_case1(case1):
    # at coincidence the mixed second derivative is minus the skew-corrected
    # metric; for a constant coincidence covector the correction vanishes
    fm = fundamental_metric(case1, X0, X0)
    assert np.max(np.abs(fm.cov + MINK)) < 1e-8


def test_christoffels_vanish_flat(minkowski):
    cs = christoffels(minkowski, X0, XP0)
    for arr in (cs.tilde_x, cs.tilde_xp, cs.g_x, cs.g_xp):
        # quadratic world: zero truncation, pure rounding noise
        assert np.max(np.abs(arr)) < 1e-7


def test_christoffels_cubic_coincidence(cubic):
    # two-point symbols at coincidence match the coefficient assembly
    cs = christoffels(cubic, X0, X0)
    cc = coincidence_coefficients(cubic, X0)
    assert np.max(np.abs(cs.tilde_x - cc.gamma_tilde_f)) < 1e-8
    assert np.max(np.abs(cs.tilde_xp - cc.gamma_tilde_p)) < 1e-8
    # gamma = 0 and the force term is the metric-raised cubic coefficient
    a3 = np.asarray(cubic.spec.a3)
    beta_expected = np.einsum("si,kls->ikl", np.linalg.inv(MINK), a3)
    assert np.max(np.abs(cc.gamma)) < 1e-10
    assert np.max(np.abs(cc.beta - beta_expected)) < 1e-8
    assert np.max(np.abs(cc.gamma_tilde_f - (cc.gamma + cc.beta))) < 1e-10


def test_flat_two_point_curvature(all_worlds):
    # the curvature built from the two-point symbols vanishes identically
    for name, w in all_worlds.items():
        defect = flat_curvature_defect(w, X0, XP0, part="full")
        assert np.max(np.abs(defect)) < 1e-4, name
        defect_g = flat_curvature_defect(w, X0, XP0, part="sym")
        assert np.max(np.abs(defect_g)) < 1e-4, name


def test_flat_two_point_curvature_warped(warped_chart):
    xw = np.array([0.3, -0.2, 0.4])
    xq = np.array([0.1, 0.2, -0.3])
    defect = flat_curvature_defect(warped_chart, xw, xq, part="full")
    assert np.max(np.abs(defect)) < 1e-4


# ---------------------------------------------------------------------------
# coincidence coefficients
# ---------------------------------------------------------------------------

def test_coincidence_case1(case1):
    cc = coincidence_coefficients(case1, X0)
    assert np.max(np.abs(cc.a - np.array([1, 0, 0, 0]))) < 1e-10
    assert np.max(np.abs(cc.g - MINK)) < 1e-8
    b = np.array([1.0, 0, 0, 0])
    a3_expected = 2 * 0.2 * (
        np.einsum("i,kl->ikl", b, MINK)
        + np.einsum("k,li->ikl", b, MINK)
        + np.einsum("l,ik->ikl", b, MINK)
    )
    assert np.max(np.abs(cc.a3 - a3_expected)) < 1e-5


def test_coincidence_euclidean(minkowski):
    cc = coincidence_coefficients(minkowski, X0)
    assert np.max(np.abs(cc.a)) < 1e-12
    assert np.max(np.abs(cc.gamma)) < 1e-10
    assert np.max(np.abs(cc.beta)) < 1e-10
    for mat in (cc.g_tilde, cc.sigma_f, cc.sigma_p):
        assert np.max(np.abs(mat - cc.g)) < 1e-8


def test_coincidence_invariants(case1, cubic):
    for w in (case1, cubic):
        cc = coincidence_coefficients(w, X0)
        assert np.max(np.abs(cc.g - cc.g.T)) < 1e-10
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.max(np.abs(cc.a3 - np.transpose(cc.a3, perm))) < 1e-8
            assert np.max(np.abs(cc.g3 - np.transpose(cc.g3, perm))) < 1e-8
        assert np.max(np.abs(cc.beta - cc.beta.transpose(0, 2, 1))) < 1e-8
        assert np.max(np.abs(cc.g_inv @ cc.g - np.eye(4))) < 1e-8
        # first-index inverse convention of the skew-corrected metric
        ident = np.einsum("il,ik->lk", cc.g_tilde_inv, cc.g_tilde)
        assert np.max(np.abs(ident - np.eye(4))) < 1e-8


def test_force_tensor_from_symbol_difference(cubic):
    # the force tensor equals half the metric-weighted difference of the
    # future and past coincidence symbols
    cc = coincidence_coefficients(cubic, X0)
    diff = cc.gamma_tilde_f - cc.gamma_tilde_p
    recon = 0.5 * np.einsum("ip,ps,skl->ikl", cc.g_inv, cc.g_tilde, diff)
    assert np.max(np.abs(recon - cc.beta)) < 1e-5


def test_warped_chart_gamma_oracle(warped_chart):
    # analytic Christoffel of the pulled-back flat metric
    xw = np.array([0.3, -0.2, 0.4])
    cc = coincidence_coefficients(warped_chart, xw)

    def jac(x):
        jq = np.array([
            [x[1], x[0], 0.0],
            [0.0, x[2], x[1]],
            [x[2], 0.0, x[0]],
        ])
        return np.eye(3) + _WARP @ jq

    def metric_field(x):
        j = jac(x)
        return j.T @ j

    assert np.max(np.abs(cc.g - metric_field(xw))) < 1e-10
    dg = field_derivative(metric_field, xw)
    g_inv = np.linalg.inv(metric_field(xw))
    gamma_true = 0.5 * np.einsum(
        "si,ksl->ikl",
        g_inv,
        np.einsum("ksl->ksl", dg) + np.einsum("slk->ksl", dg)
        - np.einsum("lks->ksl", dg),
    )
    assert np.max(np.abs(cc.gamma - gamma_true)) < 1e-8


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

def test_transport_identity_at_coincidence(all_worlds):
    rng = np.random.default_rng(1)
    v = rng.normal(size=4)
    for w in all_worlds.values():
        for space in ("tilde_xprime", "tilde_x", "g_xprime", "g_x"):
            out = transport_matrix(w, space, X0, X0) @ v
            assert np.max(np.abs(out - v)) < 1e-7


def test_transport_is_identity_everywhere_flat(minkowski):
    rng = np.random.default_rng(2)
    v = rng.normal(size=4)
    for space in ("tilde_xprime", "tilde_x", "g_xprime", "g_x"):
        out = transport_matrix(minkowski, space, X0, XP0) @ v
        assert np.max(np.abs(out - v)) < 1e-7


def metric_by_transport(w, x, xp, anchor_metric):
    """Reconstruct the flat-space metric at x by transporting a symmetric
    anchor metric from xp (the tilde space of the full world function)."""
    t = transport_matrix(w, "tilde_xprime", x, xp)
    return t @ np.asarray(anchor_metric, dtype=float) @ t.T


def metric_two_point_form(w, x, xp, anchor_metric):
    """Same metric assembled directly from mixed second derivatives and the
    coincidence inverse; must agree with metric_by_transport."""
    s = fd.partial_tensor(w, x, xp, 1, 1)
    v0 = np.linalg.inv(fd.partial_tensor(w, xp, xp, 1, 1).T).T
    inner = v0.T @ np.asarray(anchor_metric, dtype=float) @ v0
    return s @ inner @ s.T


def test_metric_reconstruction_two_routes(cubic):
    anchor = MINK.copy()
    m1 = metric_by_transport(cubic, XP0, X0, anchor)
    m2 = metric_two_point_form(cubic, XP0, X0, anchor)
    assert np.max(np.abs(m1 - m2)) < 1e-10


def test_transport_space_checked_before_any_world_call(minkowski):
    w, calls = _counted(minkowski, 4)
    with pytest.raises(ValueError, match="unknown transport space"):
        transport_matrix(w, "h_x", X0, XP0)
    assert calls == []


def test_transport_singular_metric_raises(minkowski):
    with pytest.raises(SingularMetricError):
        # degenerate direction collapse: zero-metric world via callable
        from tgeom import world_from_callable
        bad = world_from_callable(lambda a, b: 0.0 * a[..., 0], 4)
        transport_matrix(bad, "tilde_xprime", X0, XP0)


# ---------------------------------------------------------------------------
# curvature machinery
# ---------------------------------------------------------------------------

def test_f_tensor_zero_flat(minkowski):
    assert np.max(np.abs(f_tensor(minkowski, X0, XP0))) < 5e-5


def test_f_tensor_cubic_closed_form(cubic):
    # coincident value: minus the metric-contracted square of the cubic
    # coefficients (derived by hand from the definition)
    a3 = np.asarray(cubic.spec.a3)
    g_inv = np.linalg.inv(MINK)
    closed = -np.einsum("tm,ism,tpk->ispk", g_inv, a3, a3)
    fco = f_tensor(cubic, X0, X0)
    assert np.max(np.abs(fco - closed)) < 1e-8


def test_riemann_from_gamma_zero():
    gamma = np.zeros((3, 3, 3))
    derivs = np.zeros((3, 3, 3, 3))
    assert np.max(np.abs(riemann_from_gamma(gamma, derivs))) == 0.0


def test_riemann_validates_input():
    gamma = np.zeros((3, 3, 3))
    gamma[0, 0, 1] = 1.0  # not symmetric in the lower pair
    with pytest.raises(ValueError, match="symmetric"):
        riemann_from_gamma(gamma, np.zeros((3, 3, 3, 3)))
    with pytest.raises(ValueError, match="shape"):
        riemann_from_gamma(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))


def test_warped_chart_flatness(warped_chart):
    # nonzero connection, identically zero curvature (flatness is
    # chart-invariant)
    xw = np.array([0.3, -0.2, 0.4])
    bundle = curvature_bundle(warped_chart, xw)
    assert np.max(np.abs(coincidence_coefficients(warped_chart, xw).gamma)) > 0.05
    assert np.max(np.abs(bundle.riemann)) < 1e-4


def test_curvature_symmetries_cubic(cubic):
    bundle = curvature_bundle(cubic, X0)
    assert bundle.defects["pair_symmetry"] < 5e-4
    assert bundle.defects["block_swap"] < 5e-4
    assert bundle.defects["tilde_relation_f"] < 1e-3
    assert bundle.defects["tilde_relation_p"] < 1e-3


def test_mixed_curvature_relation_warped(warped_chart):
    xw = np.array([0.3, -0.2, 0.4])
    bundle = curvature_bundle(warped_chart, xw)
    assert bundle.defects["mixed_relation"] < 5e-4
    assert bundle.defects["pair_symmetry"] < 5e-4
    assert bundle.defects["block_swap"] < 5e-4


def test_flat_curvature_defect_world_points(cubic):
    # one pass of the chosen part over 1,096 unique stencil points: the full
    # world alone needs no reversed call, the symmetric part one at xp != x
    for part, want in (("full", [1096]), ("sym", [1096, 1096])):
        w, calls = _counted(cubic, 4)
        flat_curvature_defect(w, X0, XP0, part=part)
        assert calls == want, part


def test_curvature_bundle_world_points(cubic):
    # one part pass at coincidence over the orders of F and the rest: one
    # world call over its 2,993 unique stencil points at d=4
    w, calls = _counted(cubic, 4)
    curvature_bundle(w, X0)
    assert calls == [2993]


def test_curvature_bundle_reads_no_coincidence_gradient(all_worlds, monkeypatch):
    # no field of the bundle reads a: with its (1, 0) tensor requested too,
    # every tensor and defect is the same to the bit
    got = {name: curvature_bundle(w, X0) for name, w in all_worlds.items()}
    monkeypatch.setattr(calculus, "_CURVATURE_ORDERS", [(1, 0), *calculus._CURVATURE_ORDERS])
    for name, w in all_worlds.items():
        want = curvature_bundle(w, X0)
        for field in dataclasses.fields(want):
            a, b = getattr(got[name], field.name), getattr(want, field.name)
            assert (a == b if field.name == "defects" else np.array_equal(a, b)), (name, field.name)


def test_curvature_bundle_connections_are_coincidence_coefficients(all_worlds):
    # the bundle's connections come from the same stencils and the same
    # formulas as coincidence_coefficients
    for name, w in all_worlds.items():
        t = fd.part_tensors(w, X0, X0, _F_ORDERS)
        rest = fd.part_tensors(w, X0, X0, _CURVATURE_ORDERS)
        bundled = _coefficients_from(X0, {p: {**t[p], **rest[p]} for p in t}, None)
        cc = coincidence_coefficients(w, X0)
        for field in ("g", "g_tilde", "gamma", "beta", "gamma_tilde_f", "gamma_tilde_p"):
            assert np.array_equal(getattr(bundled, field), getattr(cc, field)), (name, field)


_G3 = np.diag([1.0, 2.0, 1.5])


def _curved_asymmetric(x, xp):
    # x-dependent metric and an antisymmetric part with nonzero coincidence
    # gradient and force tensor: no field is constant along the diagonal
    xi, m = x - xp, 0.5 * (x + xp)
    conf = 1.0 + 0.2 * np.sin(m[..., 0]) + 0.1 * m[..., 1] * m[..., 2]
    odd = (0.1 * np.cos(m[..., 1]) * xi[..., 0] + 0.05 * m[..., 2] * xi[..., 1]
           + 0.04 * (1.0 + m[..., 0]) * xi[..., 0] * xi[..., 1] * xi[..., 2])
    return 0.5 * conf * np.einsum("...i,ij,...j", xi, _G3, xi) + odd


@pytest.mark.parametrize("which", ["warped_chart", "curved_asymmetric"])
def test_connection_derivatives_match_nested_differencing(warped_chart, which):
    # direct coincidence stencils vs a fourth-order derivative of the
    # connections themselves (the nested differencing they replace)
    w = warped_chart if which == "warped_chart" else world_from_callable(_curved_asymmetric, 3)
    xw = np.array([0.3, -0.2, 0.4])
    t = fd.part_tensors(w, xw, xw, _F_ORDERS)
    rest = fd.part_tensors(w, xw, xw, _CURVATURE_ORDERS)
    t = {p: {**t[p], **rest[p]} for p in t}
    direct = _connection_derivatives(_coefficients_from(xw, t, None), t)

    def connections(p):
        cc = coincidence_coefficients(w, p)
        return np.stack([cc.gamma, cc.gamma_tilde_f, cc.gamma_tilde_p])

    nested = field_derivative(connections, xw)
    assert np.max(np.abs(nested)) > 1e-2
    for name, d, ref in zip(("gamma", "gamma_tilde_f", "gamma_tilde_p"), direct, nested):
        assert np.max(np.abs(d - ref)) < 1e-6, name


def _constant_force_curvatures(a3):
    # gamma = 0, g_tilde = g and a constant force tensor: the future/past
    # connections are +-beta, whose curvature is quadratic in beta
    beta = np.einsum("si,kls->ikl", np.linalg.inv(MINK), a3)
    zero = np.zeros((4,) * 4)
    return zero, riemann_from_gamma(beta, zero), riemann_from_gamma(-beta, zero)


def test_curvature_bundle_against_exact_curvature(case1, cubic, warped_chart):
    # errors against the closed forms; the nested differencing this replaces
    # reached 3.9e-8 (warped chart), 5.4e-7 (case1 future/past) and 2.7e-10
    # (cubic_a future/past) on these inputs
    b = np.array([1.0, 0, 0, 0])
    case1_a3 = 2 * 0.2 * (np.einsum("i,kl->ikl", b, MINK) + np.einsum("k,li->ikl", b, MINK)
                          + np.einsum("l,ik->ikl", b, MINK))
    xw = np.array([0.3, -0.2, 0.4])
    flat = np.zeros((3,) * 4)
    cases = [
        # world, point, exact (r, r_f, r_p), bound on r, on r_f/r_p, on the relations
        (warped_chart, xw, (flat, flat, flat), 1e-9, 1e-9, 1e-9),
        # the symmetric part of case1 is flat to 5.9e-9 (1.3e-10 under
        # nested differencing, whose stencil noise cancels between shifted
        # copies of a translation-invariant world)
        (case1, X0, _constant_force_curvatures(case1_a3), 3e-8, 1e-7, 1e-7),
        (cubic, X0, _constant_force_curvatures(np.asarray(cubic.spec.a3)), 8e-11, 8e-11, 8e-11),
    ]
    for w, x, exact, tol_r, tol_tilde, tol_rel in cases:
        bundle = curvature_bundle(w, x)
        got = (bundle.riemann, bundle.riemann_tilde_f, bundle.riemann_tilde_p)
        errs = [float(np.max(np.abs(g - e))) for g, e in zip(got, exact)]
        assert errs[0] < tol_r, (w.kind, errs)
        assert max(errs[1:]) < tol_tilde, (w.kind, errs)
        relations = [bundle.defects[k] for k in ("mixed_relation", "tilde_relation_f",
                                                 "tilde_relation_p")]
        assert max(relations) < tol_rel, (w.kind, relations)
