import numpy as np
import pytest

from tgeom import (
    SingularMetricError,
    christoffels,
    coincidence_coefficients,
    curvature_bundle,
    f_tensor,
    fd_derivatives,
    flat_curvature_defect,
    fundamental_metric,
    parallel_transport,
    riemann_from_gamma,
    transport_matrix,
    world_from_callable,
)
from tgeom.calculus import metric_by_transport, metric_two_point_form
from tgeom import fd
from conftest import world, _WARP

MINK = np.diag([1.0, -1.0, -1.0, -1.0])
X0 = np.array([0.2, -0.1, 0.3, 0.05])
XP0 = np.array([0.5, 0.2, -0.1, 0.1])


# ---------------------------------------------------------------------------
# derivative bundles
# ---------------------------------------------------------------------------

def test_mixed_second_is_minus_metric(minkowski):
    bundle = fd_derivatives(minkowski, X0, XP0, max_order=2)
    assert np.max(np.abs(bundle.get("full", 1, 1) + MINK)) < 1e-8
    assert bundle.symmetry_defects["sym_swap"] < 1e-12
    assert bundle.symmetry_defects["asym_swap"] < 1e-12


def test_first_derivative_at_coincidence(case1):
    bundle = fd_derivatives(case1, X0, X0, max_order=1)
    assert np.max(np.abs(bundle.get("full", 1, 0) - np.array([1, 0, 0, 0]))) < 1e-10
    assert np.max(np.abs(bundle.get("full", 0, 1) + np.array([1, 0, 0, 0]))) < 1e-10


def test_third_derivative_of_cubic_part(cubic):
    a3 = np.asarray(cubic.spec.a3)
    bundle = fd_derivatives(cubic, X0, X0, max_order=3)
    assert np.max(np.abs(bundle.get("asym", 3, 0) - a3)) < 1e-6


PART_ORDERS = [(nx, npr) for nx in range(3) for npr in range(3)]


@pytest.mark.parametrize("anchor", ["coincidence", "separated"])
def test_part_tensors_match_per_part_passes(all_worlds, anchor):
    # one two-call pass reproduces the separate w / w.sym / w.asym passes
    xp = X0 if anchor == "coincidence" else XP0
    for name, w in all_worlds.items():
        parts = fd.part_tensors(w, X0, xp, PART_ORDERS)
        for part, fn in (("full", w), ("sym", w.sym), ("asym", w.asym)):
            want = fd.partial_tensors(fn, X0, xp, PART_ORDERS)
            for key in PART_ORDERS:
                assert np.array_equal(parts[part][key], want[key]), (name, part, key)


def test_coincidence_coefficients_world_points(cubic):
    # one part pass at coincidence: 8,720 world points at d=4
    points = []

    def counted(a, b):
        points.append(np.asarray(a).shape[0])
        return cubic(a, b)

    w = world_from_callable(counted, 4)
    coincidence_coefficients(w, X0)
    assert sum(points) == 8720


def test_symmetry_defects_exact(all_worlds):
    for name, w in all_worlds.items():
        bundle = fd_derivatives(w, X0, XP0, max_order=1)
        assert bundle.symmetry_defects == {"sym_swap": 0.0, "asym_swap": 0.0}, name


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
    dg = fd.field_derivative(metric_field, xw)
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
            out = parallel_transport(w, space, X0, X0, v)
            assert np.max(np.abs(out - v)) < 1e-7


def test_transport_is_identity_everywhere_flat(minkowski):
    rng = np.random.default_rng(2)
    v = rng.normal(size=4)
    for space in ("tilde_xprime", "tilde_x", "g_xprime", "g_x"):
        out = parallel_transport(minkowski, space, X0, XP0, v)
        assert np.max(np.abs(out - v)) < 1e-7


def test_metric_reconstruction_two_routes(cubic):
    anchor = MINK.copy()
    m1 = metric_by_transport(cubic, XP0, X0, anchor)
    m2 = metric_two_point_form(cubic, XP0, X0, anchor)
    assert np.max(np.abs(m1 - m2)) < 1e-10


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
