import warnings

import numpy as np
import pytest

from tgeom import (
    DegenerateSkeletonError,
    GeometryError,
    Multivector,
    SingularMetricError,
    degeneration_check,
    eta_case1_closed,
    eta_triangle,
    euclideaness_check,
    fd,
    WorldFunction,
    world_from_callable,
)
from tgeom import degeneracy
from tgeom.degeneracy import FlatBasis, diagnostic_probes
from tgeom.newton import MAX_HALVINGS, newton
from tgeom.products import _det, product_matrix
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
    report = euclideaness_check(w, orthonormal_basis(n), probes_for(n))
    for check in report.checks:
        assert check.verdict, check.name
        if check.name != "IV_solvability":
            assert check.residual < 1e-8, check.name
    assert report.summary["classification"] == "euclidean"
    assert report.summary["eigenvalue_signs"] == [1] * n


def test_minkowski_is_pseudo_euclidean(minkowski):
    report = euclideaness_check(minkowski, orthonormal_basis(4), probes_for(4))
    assert report.summary["conditions_passed"]
    assert report.summary["classification"] == "pseudo_euclidean"
    assert sorted(report.summary["eigenvalue_signs"]) == [-1, -1, -1, 1]


def test_asymmetric_worlds_fail_condition_one(all_worlds):
    # staggered timelike probes keep clear of the screened family's pole
    basis = 0.5 * orthonormal_basis(4)
    basis[:, 0] += 0.1 * np.arange(5)
    probes = diagnostic_probes(4)
    for name in ("constant_a", "case1", "case2", "cubic_a"):
        report = euclideaness_check(all_worlds[name], basis, probes)
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
    # probe rows, never pairs, per world call: 51 calls over 825 points,
    # conditions I and III sharing one forward and one reverse row per
    # probe over the later probes, and II bordering the flat basis, which
    # takes 2 calls to build (the product matrix's point grid and the
    # reversed basis row).  case1 fails
    # condition I, so condition IV's 64 Newton solves never run; the report
    # is the one of the uncounted world
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return case1(a, b)

    w = world_from_callable(counted, 4, label="case1")
    probes = diagnostic_probes(4, 24, seed=0)
    report = euclideaness_check(w, staggered_basis(4), probes, seed=0)
    assert (len(sizes), sum(sizes)) == (51, 825)
    want = euclideaness_check(case1, staggered_basis(4), probes, seed=0)
    assert report.to_dict() == want.to_dict()
    sizes.clear()
    FlatBasis.build(w, Multivector(staggered_basis(4)))
    assert len(sizes) == 2


@pytest.mark.parametrize("power", [-1000, 1000])
def test_report_is_free_of_the_world_scale(all_worlds, power):
    # residuals are read in the basis unit, a power of two, so a world
    # scaled by 2**power, 1e-301 or 1e301, reads every digit of the report
    # of the world itself, condition IV's solves included
    basis, probes = staggered_basis(4), diagnostic_probes(4, 24, seed=0)
    for name, w in all_worlds.items():
        scaled = world_from_callable(lambda a, b, w=w: 2.0 ** power * w(a, b), 4, label=w.kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = euclideaness_check(scaled, basis, probes, seed=0)
        assert report.to_dict() == euclideaness_check(w, basis, probes, seed=0).to_dict(), name


def test_nan_probe_value_is_an_error(minkowski):
    # one probe pair value is NaN; a running max would drop it and pass the
    # world as pseudo-Euclidean
    probes = diagnostic_probes(4, 24, seed=0)

    def holed(a, b):
        hit = np.all(a == probes[5], axis=-1) & np.all(b == probes[9], axis=-1)
        return np.where(hit, np.nan, minkowski(a, b))

    w = world_from_callable(holed, 4, label="holed")
    with pytest.raises(SingularMetricError, match="not finite on the probes"):
        euclideaness_check(w, staggered_basis(4), probes)


@pytest.mark.parametrize("name", ["case1", "euclidean"])
def test_conditions_match_every_ordered_pair(all_worlds, name):
    # I, II and III recomputed pair by pair, one world call per value: the
    # check reads each pair once in each order, and gives these bit for bit
    w = all_worlds[name]
    basis = staggered_basis(4)
    probes = diagnostic_probes(4, 24, seed=0)
    report = euclideaness_check(w, basis, probes, seed=0)
    fb = FlatBasis.build(w, Multivector(basis))
    n, p0 = 4, basis[0]

    def val(a, b):
        return float(w(a, b))

    coords = np.array([[(val(p, p0) + val(p0, q)) - val(p, q) for p in basis[1:]]
                       for q in probes])
    pairs = [(i, k) for i in range(len(probes)) for k in range(len(probes)) if i != k]
    scale = max([fb.unit] + [abs(val(probes[i], probes[k])) for i, k in pairs if i < k])
    asym = max(abs(0.5 * (val(probes[i], probes[k]) - val(probes[k], probes[i])))
               for i, k in pairs)
    recon = 0.0
    for i, k in pairs:
        dx = coords[i] - coords[k]
        truth = val(probes[i], probes[k])
        recon = max(recon, abs(0.5 * float(dx @ fb.g_inv @ dx) - truth) / (fb.unit + abs(truth)))
    f_n = _det(fb.g / fb.unit)
    dimension = 0.0
    for q, x in zip(probes, coords):
        m = np.empty((n + 1, n + 1))
        m[:n, :n] = fb.g
        m[:n, n] = x
        m[n, :n] = [(val(q, p0) + val(p0, p)) - val(q, p) for p in basis[1:]]
        m[n, n] = val(q, p0) + val(p0, q)
        m /= fb.unit
        denom = abs(f_n) * (abs(m[n, n]) + 1.0)
        dimension = max(dimension, abs(_det(m)) / max(denom, 1e-300))
    assert report["I_symmetry"].residual == asym / scale
    assert report["II_dimension"].residual == dimension
    assert report["III_reconstruction"].residual == recon


def case2_solve_rate(case2, w):
    """Condition IV's solve-success rate on case2, called directly: case2
    fails condition I, so its reports skip IV.  The flat basis and the
    probe coordinates are built on case2, the Newton solves run on w."""
    fb = FlatBasis.build(case2, Multivector(staggered_basis(4)))
    coords = fb.coordinates(case2, diagnostic_probes(4, 4, seed=517))
    return degeneracy._coordinate_solve_rate(w, fb, coords, 517)


def test_condition_four_rate_ignores_last_bit_jacobian_changes(case2, monkeypatch):
    # a solve-success rate must measure the coordinate equations, not where
    # round-off sends the iterates: relative changes of 4 eps in every
    # Jacobian entry leave the rate where it was.  From these starts full
    # Newton steps reach case2's pole (xi^2 = -1/beta), where the
    # Jacobian's finite differences are noise
    want = case2_solve_rate(case2, case2)
    jacobian = FlatBasis.jacobian
    rng = np.random.default_rng(517)

    def perturbed(self, w, point):
        jac = jacobian(self, w, point)
        signs = rng.choice([-1.0, 1.0], size=jac.shape)
        return jac * (1.0 + 4.0 * np.finfo(float).eps * signs)

    monkeypatch.setattr(FlatBasis, "jacobian", perturbed)
    for _ in range(5):
        assert case2_solve_rate(case2, case2) == want


def test_condition_four_solves_share_one_halving_budget(case2, monkeypatch):
    # from these starts full Newton steps wander near case2's pole, where no
    # step length lowers the residual for long: each solve stops once it has
    # halved MAX_HALVINGS times in all, and the 64 solves cost 1,469 calls
    # over 20,330 points (with a budget per step, one solve alone halved 854
    # times and the solves cost 7,724 calls over 85,420 points; with a
    # stencil Jacobian at every step, the chord step of tgeom.newton never
    # taken, 1,496 calls over 21,480 points)
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
    rate = case2_solve_rate(case2, world_from_callable(counted, 4, label="case2"))
    assert len(records) == 64
    assert max(r.backtracks for r in records) == MAX_HALVINGS
    assert all(r.stalled for r in records if r.backtracks == MAX_HALVINGS)
    assert (len(sizes), sum(sizes)) == (1469, 20330)
    assert rate == case2_solve_rate(case2, case2)


# Condition IV's Jacobian, a 2-point stencil of the coordinate map that only
# steers Newton: worst error relative to the largest exact entry over the
# probes below, as (budget, measured) per family
COORDINATE_JACOBIAN_BUDGETS = {
    "euclidean": (2e-12, 6.8e-13),
    "constant_a": (3e-12, 8.5e-13),
    "case1": (3e-12, 7.9e-13),
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
    # four coordinate rows through one stencil give, bit for bit, one left
    # to right sum per entry and row over that entry's own stencil values; a
    # returned Jacobian is the caller's to change
    basis = staggered_basis(4)
    for name, w in all_worlds.items():
        fb = FlatBasis.build(w, Multivector(basis))
        for q in diagnostic_probes(4, 6, seed=0):
            step = fd.step_size(fb.coordinates, 1, basis[0], q)
            want = np.zeros((4, 4))
            for _, offs_q, unit, targets in fd._tensor_entries(4, 0, 1, 1):
                rows = fb.coordinates(w, q + step * offs_q).T
                for i, row in enumerate(rows):
                    want[(i,) + targets[0]] = sum(row * (unit / step))
            jac = fb.jacobian(w, q)
            assert np.array_equal(jac, want), name
            jac[...] = np.nan
            assert np.array_equal(fb.jacobian(w, q), want), name


def condition_two_by_gram(w, basis_points, probes):
    """Condition II by its definition: a Gram determinant for the basis and
    one for each basis+probe tuple, in the basis unit (the largest power of
    two not above max |g_ik|), scaled by twice the symmetric part."""
    basis = Multivector(np.asarray(basis_points, dtype=float))
    g = product_matrix(w, basis, basis)
    unit = 2.0 ** np.floor(np.log2(np.max(np.abs(g))))
    f_n = _det(g / unit)
    p0 = basis.points[0]
    nondegenerate = 1.0 if abs(f_n) <= 1e-12 else 0.0
    worst = 0.0
    for q, two_sym in zip(probes, np.abs(2.0 * w.sym(p0, probes)).tolist()):
        extended = Multivector(np.vstack([basis.points, q[None, :]]))
        f_n1 = _det(product_matrix(w, extended, extended) / unit)
        worst = max(worst, abs(f_n1) / max(abs(f_n) * (two_sym / unit + 1.0), 1e-300))
    return nondegenerate, worst


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("n", [3, 4])
def test_condition_two_matches_per_probe_gram(all_worlds, n, seed):
    # the bordered flat-basis Gram matrix gives the definition's values
    # bit for bit, on a full basis and on one of fewer points than dimensions
    basis = staggered_basis(4)[:n + 1]
    probes = diagnostic_probes(4, 24, seed=seed)
    for name, w in all_worlds.items():
        report = euclideaness_check(w, basis, probes)
        nondegenerate, dimension = condition_two_by_gram(w, basis, probes)
        assert report["II_basis_nondegenerate"].residual.hex() == nondegenerate.hex(), name
        assert report["II_dimension"].residual.hex() == dimension.hex(), name


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_screened_pole_reported(case2):
    # the unit spacelike basis separation sits exactly on the screening pole
    with pytest.raises(SingularMetricError, match="pole"):
        euclideaness_check(case2, orthonormal_basis(4), probes_for(4))


def test_wrong_dimension_fails_condition_two():
    # a 3-dimensional flat world is not 2-dimensional: the dimension check
    # must reject the n=2 hypothesis
    w = world("euclidean", dim=3, metric=[1, 1, 1])
    basis = np.vstack([np.zeros(3), np.eye(3)[:2]])
    report = euclideaness_check(w, basis, probes_for(3))
    assert not report["II_dimension"].verdict
    assert report.summary["classification"] == "not_euclidean"


def test_degenerate_basis_rejected(euclid3):
    basis = np.vstack([np.zeros(3), np.eye(3)])
    basis[2] = basis[1]  # repeated basis point
    with pytest.raises(DegenerateSkeletonError):
        euclideaness_check(euclid3, basis, probes_for(3))


def test_all_zero_basis_rejected_without_warning():
    # the basis is judged by det(g / unit): an all-zero g reads unit 0.5, so
    # it is degenerate and never divided by zero
    zero = world_from_callable(lambda a, b: np.zeros(np.broadcast_shapes(
        np.shape(a)[:-1], np.shape(b)[:-1])), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateSkeletonError, match="vanishing squared length"):
            FlatBasis.build(zero, Multivector(np.vstack([np.zeros(2), np.eye(2)])))


def test_general_position_basis(euclid3):
    # conditions do not depend on the basis being orthonormal
    rng = np.random.default_rng(3)
    basis = rng.normal(size=(4, 3))
    report = euclideaness_check(euclid3, basis, probes_for(3))
    assert report.summary["classification"] == "euclidean"


def test_condition_four_counts_a_solve_that_leaves_the_chart():
    # a flat plane whose chart ends at radius 1.2: the targets in the
    # corners of the coordinate box of probes on the unit circle lie
    # outside, so the solves toward them raise GeometryError, each counted
    # as a failure and none escaping the report
    def evaluate(x, xp):
        if np.any(np.linalg.norm(x, axis=-1) > 1.2) or np.any(np.linalg.norm(xp, axis=-1) > 1.2):
            raise GeometryError("outside the chart")
        xi = x - xp
        return 0.5 * np.einsum("...i,...i", xi, xi)

    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    probes = np.column_stack([np.cos(angles), np.sin(angles)])
    report = euclideaness_check(world_from_callable(evaluate, 2), orthonormal_basis(2), probes)
    assert all(c.verdict for c in report.checks[:4])
    assert 0.0 < report["IV_solvability"].residual < 1.0
    assert report.summary["classification"] == "not_euclidean"


def test_condition_four_fails_a_basis_smaller_than_the_chart():
    # a flat plane in a 3-dimensional chart, blind to x2: the 2-dimensional
    # basis passes I-III, but 2 coordinates cannot fix 3 chart coordinates
    def evaluate(x, xp):
        xi = (x - xp)[..., :2]
        return 0.5 * np.einsum("...i,...i", xi, xi)

    basis = np.vstack([np.zeros(3), np.eye(3)[:2]])
    report = euclideaness_check(world_from_callable(evaluate, 3), basis, probes_for(3))
    assert all(c.verdict for c in report.checks[:4])
    assert report["IV_solvability"].residual == 1.0
    assert report.summary["classification"] == "not_euclidean"


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


def test_degeneration_world_call_budget(all_worlds):
    # every request takes the 2-point rule, and the coincidence Hessians the
    # seven-point rule off the diagonal: the coincidence tensors take one
    # call over 57 points; each of the 7 directions requests (0, 0) and
    # (0, 1) at two separations, 9 points in each of two calls (w(P, Q) and
    # w(Q, P)), 252 points in 28 calls in all.  Only a degenerate neutral
    # tube adds each direction's second difference at the outer separation,
    # 2 points in each of two calls, whose middle value the outer request
    # read, where a full (0, 2) Hessian would read 21.  The counting world carries the plain world's spec, so it takes
    # the same steps, and the report is the one of the uncounted world
    x = np.array([0.2, -0.1, 0.3, 0.05])
    for name, plain in all_worlds.items():
        sizes = []

        def counted(a, b, plain=plain):
            sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
            return plain(a, b)

        report = degeneration_check(WorldFunction(counted, 4, spec=plain.spec, label=plain.kind), x)
        want = (43, 337) if report.summary["neutral"] == "degenerate" else (29, 309)
        assert (len(sizes), sum(sizes)) == want, name
        assert report.to_dict() == degeneration_check(plain, x).to_dict(), name


# The check on 2-point stencils against itself on the 4-point rule: the
# largest |2-point - 4-point| change of a residual the reference passes, as
# (budget, measured), and of one it fails, relative to the reference
PASSING_RESIDUAL_BUDGETS = {
    "neutral_gradient_cancel": (2e-12, 6.7e-13),
    "eikonal": (2e-13, 7.6e-14),
    "future_tube": (1e-13, 3.0e-14),
    "past_tube": (1e-13, 3.0e-14),
}
FAILING_RESIDUAL_BUDGET = (1e-4, 3.7e-5)  # neutral_gradient_cancel, the only one


@pytest.mark.parametrize("at", [[0.2, -0.1, 0.3, 0.05], [0, 0, 0, 0], [2, 1, -1, 0.5]])
def test_degeneration_matches_four_point_reference(all_worlds, at, monkeypatch):
    # the reference reads every tensor on the 4-point rule, and the directed
    # tubes' e . H . e from the full (0, 2) Hessian
    plain = fd.part_tensors

    def four_point(w, x, xp, orders, *, second_order=False):
        return plain(w, x, xp, orders)

    def hessian_contraction(w, p, x, e, at_x):
        return float(e @ plain(w, p, x, [(0, 2)])["asym"][(0, 2)] @ e)

    at = np.array(at, dtype=float)
    for name, w in all_worlds.items():
        got = degeneration_check(w, at)
        with monkeypatch.context() as m:
            m.setattr(fd, "part_tensors", four_point)
            m.setattr(degeneracy, "_directional_second_difference", hessian_contraction)
            want = degeneration_check(w, at)
        assert got.summary == want.summary, name
        assert [c.name for c in got.checks] == [c.name for c in want.checks], name
        assert got.notes == want.notes, name
        for g, r in zip(got.checks, want.checks):
            change = abs(g.residual - r.residual)
            if r.verdict:
                assert change <= PASSING_RESIDUAL_BUDGETS[g.name][0], (name, g.name, change)
            else:
                assert change <= FAILING_RESIDUAL_BUDGET[0] * r.residual, (name, g.name, change)
        # a degenerate world's residuals are rounding: below 1e-10 wherever
        # the reference's are (test_directed_tube_residuals_are_rounding
        # pins constant_a's directed tubes, whose Hessians take the
        # polynomial worlds' step, below 1e-12)
        if got.summary["neutral"] == "degenerate":
            for g, r in zip(got.checks, want.checks):
                assert g.residual < 1e-10 or r.residual >= 1e-10, (name, g.name)


# The directed tubes' second difference against e . H . e of the full
# 2-point (0, 2) Hessian it replaces, at the check's outer separation along
# its seven directions: worst |change| relative to the unit plus max |H|, as
# (budget, measured) per family.  The polynomial worlds' rules are exact;
# case2's differ by their truncation.
DIRECTIONAL_DIFFERENCE_BUDGETS = {
    "euclidean": (1e-15, 0.0),
    "constant_a": (2e-15, 4.3e-16),
    "case1": (2e-15, 9.3e-16),
    "case2": (6e-9, 3.2e-9),
    "cubic_a": (1e-15, 1.3e-16),
}


def test_directional_second_difference_matches_the_hessian(all_worlds):
    d = 4
    for name, w in all_worlds.items():
        worst = 0.0
        for at in ([0.2, -0.1, 0.3, 0.05], [0, 0, 0, 0], [2, 1, -1, 0.5]):
            x = np.array(at, dtype=float)
            step = degeneracy._DEGENERATION_DELTA * (1.0 + np.max(np.abs(x)))
            rng = np.random.default_rng(7)
            dirs = [*np.eye(d), np.ones(d) / np.sqrt(d),
                    *(v / np.linalg.norm(v) for v in rng.normal(size=(2, d)))]
            for e in dirs:
                p = x + step * e
                got = degeneracy._directional_second_difference(w, p, x, e, w.asym(p, x))
                hess = fd.part_tensors(w, p, x, [(0, 2)], second_order=True)["asym"][(0, 2)]
                worst = max(worst, abs(got - e @ hess @ e) / (w.unit + np.max(np.abs(hess))))
        assert worst <= DIRECTIONAL_DIFFERENCE_BUDGETS[name][0], (name, worst)


@pytest.mark.parametrize("at", [[2, 1, -1, 0.5], [0.5, 0.25, -0.25, 0.125], [8, 4, -4, 2]])
def test_directed_tube_residuals_are_rounding(at):
    # constant_a's antisymmetric part is linear, so its directed-tube
    # residuals are round-off alone.  At the order-2 step of a world without
    # a known smoothness they read up to 5.1e-10 (4.78e-10 at (2, 1, -1,
    # 0.5)); at the polynomial step 8.2e-14 at most.
    w = world("constant_a", b=[0.3, 0, 0, 0])
    report = degeneration_check(w, np.array(at, dtype=float))
    assert report.summary == dict.fromkeys(("neutral", "future", "past"), "degenerate")
    for kind in ("future", "past"):
        assert report[f"{kind}_tube"].residual < 1e-12, kind


def test_reports_stop_at_the_verdict(all_worlds):
    # a report evaluates a condition only while its verdict can still change
    # the summary, names each check it skipped in its notes, and keeps the
    # all-conditions rule of its summary
    x = np.array([0.2, -0.1, 0.3, 0.05])
    probes = diagnostic_probes(4)
    skipped = {"euclideaness": set(), "degeneration": set()}
    for name, w in all_worlds.items():
        report = euclideaness_check(w, staggered_basis(4), probes)
        names = [c.name for c in report.checks]
        flat = all(c.verdict for c in report.checks[:4])
        assert names[:4] == ["I_symmetry", "II_basis_nondegenerate", "II_dimension",
                             "III_reconstruction"], name
        assert names[4:] == (["IV_solvability"] if flat else []), name
        assert ("IV_solvability" in " ".join(report.notes)) != flat, name
        passed = all(c.verdict for c in report.checks)
        assert report.summary["conditions_passed"] == passed, name
        assert report.summary["classification"] == (
            report.summary["signature"] if passed else "not_euclidean"), name
        skipped["euclideaness"].add(not flat)

        report = degeneration_check(w, x)
        names = [c.name for c in report.checks]
        neutral = report["neutral_gradient_cancel"].verdict and report["eikonal"].verdict
        assert names[:2] == ["neutral_gradient_cancel", "eikonal"], name
        assert names[2:] == (["future_tube", "past_tube"] if neutral else []), name
        notes = " ".join(report.notes)
        assert ("future_tube" in notes and "past_tube" in notes) != neutral, name
        verdict = {True: "degenerate", False: "nondegenerate"}
        assert report.summary == {
            "neutral": verdict[neutral],
            **{kind: verdict[neutral and report[f"{kind}_tube"].verdict]
               for kind in ("future", "past")},
        }, name
        skipped["degeneration"].add(not neutral)
    # both outcomes of each gate are exercised
    assert skipped == {"euclideaness": {True, False}, "degeneration": {True, False}}


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
