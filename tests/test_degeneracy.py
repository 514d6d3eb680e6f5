import numpy as np
import pytest

from tgeom import (
    DegenerateSkeletonError,
    Multivector,
    SingularMetricError,
    degeneration_check,
    eta_case1_closed,
    eta_triangle,
    euclideaness_check,
    fd,
    gram,
    world_from_callable,
)
from tgeom import degeneracy
from tgeom.degeneracy import FlatBasis, diagnostic_probes
from tgeom.newton import MAX_HALVINGS, newton
from conftest import world


def orthonormal_basis(n):
    return np.vstack([np.zeros(n), np.eye(n)])


def probes_for(n, count=24, seed=13):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n))


def staggered_basis(n):
    """The basis of `tgeom check euclideaness`: clear of the case2 pole."""
    basis = 0.5 * orthonormal_basis(n)
    basis[:, 0] += 0.1 * np.arange(n + 1)
    return basis


# ---------------------------------------------------------------------------
# flat-space conditions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_euclidean_world_passes_all_conditions(n):
    w = world("euclidean", dim=n, metric=[1] * n)
    report = euclideaness_check(w, n, orthonormal_basis(n), probes_for(n))
    for check in report.checks:
        assert check.verdict, check.name
        if check.name != "IV_solvability":
            assert check.residual < 1e-8, check.name
    assert report.summary["classification"] == "euclidean"
    assert report.summary["eigenvalue_signs"] == [1] * n


def test_minkowski_is_pseudo_euclidean(minkowski):
    report = euclideaness_check(minkowski, 4, orthonormal_basis(4), probes_for(4))
    assert report.summary["conditions_passed"]
    assert report.summary["classification"] == "pseudo_euclidean"
    assert sorted(report.summary["eigenvalue_signs"]) == [-1, -1, -1, 1]


def test_asymmetric_worlds_fail_condition_one(all_worlds):
    # staggered timelike probes keep clear of the screened family's pole
    basis = 0.5 * orthonormal_basis(4)
    basis[:, 0] += 0.1 * np.arange(5)
    probes = diagnostic_probes(4)
    for name in ("constant_a", "case1", "case2", "cubic_a"):
        report = euclideaness_check(all_worlds[name], 4, basis, probes)
        assert not report["I_symmetry"].verdict, name
        assert report.summary["classification"] == "not_euclidean", name


def test_flat_basis_coordinates_batch_matches_rows(case1):
    # (..., d) points give (..., n) coordinates, each row bit for bit the
    # coordinates of its point alone
    fb = FlatBasis.build(case1, Multivector(staggered_basis(4)))
    pts = diagnostic_probes(4, 24, seed=0)
    batch = fb.coordinates(case1, pts)
    assert batch.shape == (24, 4)
    for point, row in zip(pts, batch):
        assert fb.coordinates(case1, point).tobytes() == row.tobytes()
    assert fb.coordinates(case1, pts.reshape(2, 12, 4)).tobytes() == batch.tobytes()


def test_euclideaness_world_call_budget(case1):
    # probe rows, never pairs, per world call: 860 calls over 16,460
    # points, conditions I and III sharing one forward row per probe, II
    # bordering the flat basis, which takes 2 calls to build (the product
    # matrix's point grid and the reversed basis row), and IV's
    # damped Newton making 1 per 2-point Jacobian stencil of the coordinates
    # (40 points) and 1 per residual, trial steps included; the report is
    # the one of the uncounted world
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return case1(a, b)

    w = world_from_callable(counted, 4, label="case1")
    probes = diagnostic_probes(4, 24, seed=0)
    report = euclideaness_check(w, 4, staggered_basis(4), probes, seed=0)
    assert (len(sizes), sum(sizes)) == (860, 16460)
    want = euclideaness_check(case1, 4, staggered_basis(4), probes, seed=0)
    assert report.to_json() == want.to_json()
    sizes.clear()
    FlatBasis.build(w, Multivector(staggered_basis(4)))
    assert len(sizes) == 2


def test_condition_four_rate_ignores_last_bit_jacobian_changes(case2, monkeypatch):
    # a solve-success rate must measure the coordinate equations, not where
    # round-off sends the iterates: relative changes of 4 eps in every
    # Jacobian entry leave IV_solvability where it was.  From these starts
    # full Newton steps reach case2's pole (xi^2 = -1/beta), where the
    # Jacobian's finite differences are noise
    def rate():
        report = euclideaness_check(case2, 4, staggered_basis(4),
                                    diagnostic_probes(4, 4, seed=517), seed=517)
        return report["IV_solvability"].residual

    want = rate()
    jacobian = FlatBasis.jacobian
    rng = np.random.default_rng(517)

    def perturbed(self, w, point):
        jac = jacobian(self, w, point)
        signs = rng.choice([-1.0, 1.0], size=jac.shape)
        return jac * (1.0 + 4.0 * np.finfo(float).eps * signs)

    monkeypatch.setattr(FlatBasis, "jacobian", perturbed)
    for _ in range(5):
        assert rate() == want


def test_condition_four_solves_share_one_halving_budget(case2, monkeypatch):
    # from these starts full Newton steps wander near case2's pole, where no
    # step length lowers the residual for long: each solve stops once it has
    # halved MAX_HALVINGS times in all, and the whole check costs 1,502
    # calls over 21,395 points (with a budget per step, one solve alone
    # halved 854 times and the check cost 7,738 calls over 85,515 points)
    records = []

    def recorded(*args):
        z, record = newton(*args)
        records.append(record)
        return z, record

    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return case2(a, b)

    monkeypatch.setattr(degeneracy, "newton", recorded)
    w = world_from_callable(counted, 4, label="case2")
    probes = diagnostic_probes(4, 4, seed=517)
    report = euclideaness_check(w, 4, staggered_basis(4), probes, seed=517)
    assert len(records) == 64
    assert max(r.backtracks for r in records) == MAX_HALVINGS
    assert all(r.stalled for r in records if r.backtracks == MAX_HALVINGS)
    assert (len(sizes), sum(sizes)) == (1502, 21395)
    want = euclideaness_check(case2, 4, staggered_basis(4), probes, seed=517)
    assert report.to_json() == want.to_json()


# Condition IV's Jacobian, a 2-point stencil of the coordinate map that only
# steers Newton: worst error relative to the largest exact entry over the
# probes below, as (budget, measured) per family
COORDINATE_JACOBIAN_BUDGETS = {
    "euclidean": (2e-12, 6.8e-13),
    "constant_a": (3e-12, 8.9e-13),
    "case1": (3e-12, 7.7e-13),
    "case2": (6e-6, 2.3e-6),
    "cubic_a": (3e-12, 1.1e-12),
}


def test_coordinate_jacobian_matches_gradient_differences(all_worlds):
    # by their definition the rows of d x_i / dq are the exact gradients
    # d/dq [w(p0, q) - w(p_i, q)], differentiated by sympy
    pytest.importorskip("sympy")
    from test_fd_exact import exact_tensor

    basis = staggered_basis(4)
    for name, w in all_worlds.items():
        budget, _ = COORDINATE_JACOBIAN_BUDGETS[name]
        fb = FlatBasis.build(w, Multivector(basis))
        for q in diagnostic_probes(4, 24, seed=0):
            want = np.stack([exact_tensor(name, basis[0], q, 0, 1)
                             - exact_tensor(name, p, q, 0, 1) for p in basis[1:]])
            jac = fb.jacobian(w, q)
            assert np.max(np.abs(jac - want)) <= budget * np.max(np.abs(want)), name


def test_coordinate_jacobian_matches_per_entry_dots(all_worlds):
    # four coordinate rows through one stencil give, bit for bit, one np.dot
    # per entry and row over that entry's own contiguous stencil values; a
    # returned Jacobian is the caller's to change
    basis = staggered_basis(4)
    for name, w in all_worlds.items():
        fb = FlatBasis.build(w, Multivector(basis))
        for q in diagnostic_probes(4, 6, seed=0):
            step = fd.step_size(1, basis[0], q)
            want = np.zeros((4, 4))
            for _, offs_q, unit, targets in fd._tensor_entries(4, 0, 1, True):
                rows = fb.coordinates(w, q + step * offs_q).T
                for i, row in enumerate(rows):
                    want[(i,) + targets[0]] = np.dot(np.ascontiguousarray(row), unit / step)
            jac = fb.jacobian(w, q)
            assert np.array_equal(jac, want), name
            jac[...] = np.nan
            assert np.array_equal(fb.jacobian(w, q), want), name


def condition_two_by_gram(w, n, basis_points, probes):
    """Condition II by its definition: a Gram determinant for the basis and
    one for each basis+probe tuple, scaled by twice the symmetric part."""
    basis = Multivector(np.asarray(basis_points, dtype=float))
    f_n = gram(w, basis)
    p0 = basis.points[0]
    scale = max((np.abs(w.sym(p0, basis.points[1:])) * 2.0).tolist())
    nondegenerate = 1.0 if abs(f_n) <= 1e-12 * scale**n else 0.0
    worst = 0.0
    for q, two_sym in zip(probes, np.abs(2.0 * w.sym(p0, probes)).tolist()):
        f_n1 = gram(w, Multivector(np.vstack([basis.points, q[None, :]])))
        worst = max(worst, abs(f_n1) / max(abs(f_n) * (two_sym + scale), 1e-300))
    return nondegenerate, worst


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("n", [3, 4])
def test_condition_two_matches_per_probe_gram(all_worlds, n, seed):
    # the bordered flat-basis Gram matrix gives the definition's values
    # bit for bit, on a full basis and on one of fewer points than dimensions
    basis = staggered_basis(4)[:n + 1]
    probes = diagnostic_probes(4, 24, seed=seed)
    for name, w in all_worlds.items():
        report = euclideaness_check(w, n, basis, probes)
        nondegenerate, dimension = condition_two_by_gram(w, n, basis, probes)
        assert report["II_basis_nondegenerate"].residual.hex() == nondegenerate.hex(), name
        assert report["II_dimension"].residual.hex() == dimension.hex(), name


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_screened_pole_reported(case2):
    # the unit spacelike basis separation sits exactly on the screening pole
    with pytest.raises(SingularMetricError, match="pole"):
        euclideaness_check(case2, 4, orthonormal_basis(4), probes_for(4))


def test_wrong_dimension_fails_condition_two():
    # a 3-dimensional flat world is not 2-dimensional: the dimension check
    # must reject the n=2 hypothesis
    w = world("euclidean", dim=3, metric=[1, 1, 1])
    basis = np.vstack([np.zeros(3), np.eye(3)[:2]])
    report = euclideaness_check(w, 2, basis, probes_for(3))
    assert not report["II_dimension"].verdict
    assert report.summary["classification"] == "not_euclidean"


def test_degenerate_basis_rejected(euclid3):
    basis = np.vstack([np.zeros(3), np.eye(3)])
    basis[2] = basis[1]  # repeated basis point
    with pytest.raises(DegenerateSkeletonError):
        euclideaness_check(euclid3, 3, basis, probes_for(3))


def test_general_position_basis(euclid3):
    # conditions do not depend on the basis being orthonormal
    rng = np.random.default_rng(3)
    basis = rng.normal(size=(4, 3))
    report = euclideaness_check(euclid3, 3, basis, probes_for(3))
    assert report.summary["classification"] == "euclidean"


# ---------------------------------------------------------------------------
# degeneration taxonomy
# ---------------------------------------------------------------------------

def test_degeneration_taxonomy(all_worlds):
    x = np.array([0.2, -0.1, 0.3, 0.05])
    expected = {
        "euclidean": "degenerate",
        "constant_a": "degenerate",
        "case1": "nondegenerate",
        "case2": "nondegenerate",
        "cubic_a": "nondegenerate",
    }
    for name, w in all_worlds.items():
        report = degeneration_check(w, x)
        for kind in ("neutral", "future", "past"):
            assert report.summary[kind] == expected[name], (name, kind)


def test_degeneration_report_structure(minkowski):
    report = degeneration_check(minkowski, np.zeros(4))
    names = {c.name for c in report.checks}
    assert names == {"neutral_gradient_cancel", "eikonal", "future_tube",
                     "past_tube"}
    doc = report.to_dict()
    assert doc["world"] == "euclidean"
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_eikonal_residual_small_flat(const_a4):
    report = degeneration_check(const_a4, np.zeros(4))
    assert report["eikonal"].residual < 1e-8


# ---------------------------------------------------------------------------
# triangle antisymmetry
# ---------------------------------------------------------------------------

def test_eta_constant_anisotropy_zero(const_a4):
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, xp, y = rng.normal(size=(3, 4))
        assert eta_triangle(const_a4, x, xp, y) == pytest.approx(0.0, abs=1e-14)


def test_eta_flat_zero(minkowski):
    rng = np.random.default_rng(5)
    x, xp, y = rng.normal(size=(3, 4))
    assert eta_triangle(minkowski, x, xp, y) == 0.0


def test_eta_case1_matches_closed_form(case1):
    rng = np.random.default_rng(6)
    mink = np.diag([1.0, -1, -1, -1])
    for _ in range(50):
        x, xp, y = rng.normal(size=(3, 4))
        got = eta_triangle(case1, x, xp, y)
        want = eta_case1_closed(x, xp, y, 0.2, [1, 0, 0, 0], mink)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_eta_case2_matches_screened_closed_form(case2):
    # the screened family's anisotropy is alpha b.xi / (1 + beta xi^2)
    rng = np.random.default_rng(6)
    mink = np.diag([1.0, -1, -1, -1])
    for _ in range(50):
        x, xp, y = rng.normal(size=(3, 4))
        got = eta_triangle(case2, x, xp, y)
        want = eta_case1_closed(x, xp, y, 0.2, [1, 0, 0, 0], mink, screened_beta=1.0)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_eta_symmetry_properties(case1):
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, xp, y = rng.normal(size=(3, 4))
        base = eta_triangle(case1, x, xp, y)
        # cyclic invariance
        assert eta_triangle(case1, xp, y, x) == pytest.approx(base, rel=1e-13, abs=1e-13)
        assert eta_triangle(case1, y, x, xp) == pytest.approx(base, rel=1e-13, abs=1e-13)
        # negation under any transposition
        assert eta_triangle(case1, xp, x, y) == pytest.approx(-base, rel=1e-13, abs=1e-13)
        assert eta_triangle(case1, x, y, xp) == pytest.approx(-base, rel=1e-13, abs=1e-13)
