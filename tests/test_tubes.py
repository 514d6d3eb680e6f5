import itertools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tgeom
from tgeom import tubes
from tgeom import (
    ComplexLengthError,
    DegenerateSkeletonError,
    DimensionMismatchError,
    GeometryError,
    Multivector,
    SolverError,
    TubeSpec,
    WorldFunction,
    advance_seed,
    build_broken_tube,
    case1_radii,
    eta_case1_closed,
    first_order_factors,
    first_order_residual,
    gradient_line_ode,
    gram,
    kind_length_sq,
    membership_tolerance,
    path_deviation,
    sample_axisymmetric_tube,
    section_filter,
    segment_residual,
    sphere_residual,
    tube_residual,
    world_from_callable,
)
from conftest import random_a3, world

MINK = np.diag([1.0, -1.0, -1.0, -1.0])


def timelike_triple(rng, scale=0.4):
    # pairwise timelike separations small enough that the directed radicands
    # stay real even for the rough-antisymmetric families
    p0 = rng.normal(size=4) * 0.3
    p1 = p0 + scale * (np.array([1.0, 0, 0, 0]) + rng.normal(size=4) * 0.05)
    p2 = p0 + scale * (np.array([2.1, 0, 0, 0]) + rng.normal(size=4) * 0.05)
    return p0, p1, p2


# ---------------------------------------------------------------------------
# tube residuals
# ---------------------------------------------------------------------------

def test_line_tube(euclid3):
    spec = TubeSpec(Multivector(np.array([[0, 0, 0], [1, 0, 0]], float)))
    assert tube_residual(euclid3, spec, np.array([5.0, 0, 0])) == pytest.approx(0.0, abs=1e-14)
    assert tube_residual(euclid3, spec, np.array([0.0, 1, 0])) == pytest.approx(1.0)
    # skeleton points are on the tube (repeated point gives a null tuple)
    assert tube_residual(euclid3, spec, np.array([1.0, 0, 0])) == pytest.approx(0.0, abs=1e-14)


def test_plane_tube_holds_the_skeleton_plane(euclid3):
    # a three-point skeleton spans a plane: its points extend the skeleton
    # to a flat simplex, and points off it do not
    skel = np.array([[0.0, 0, 0], [1, 0, 0], [0.3, 2, 0]])
    spec = TubeSpec(Multivector(skel))
    tol = membership_tolerance(euclid3, skel)
    rng = np.random.default_rng(4)
    for a, b in rng.normal(size=(10, 2)) * 3.0:
        assert abs(tube_residual(euclid3, spec, np.array([a, b, 0.0]))) <= tol
        off = np.array([a, b, 0.5])
        assert abs(tube_residual(euclid3, spec, off)) > tol
    for point in skel:
        assert abs(tube_residual(euclid3, spec, point)) <= tol


def test_degenerate_skeleton_rejected(euclid3):
    spec = TubeSpec(Multivector(np.array([[0, 0, 0], [0, 0, 0]], float)))
    with pytest.raises(DegenerateSkeletonError):
        tube_residual(euclid3, spec, np.array([1.0, 0, 0]))


def test_tube_residual_order_independent(case1):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p0, p1, p2 = timelike_triple(rng)
        spec_a = TubeSpec(Multivector(np.array([p0, p1])))
        spec_b = TubeSpec(Multivector(np.array([p1, p0])))
        ra = tube_residual(case1, spec_a, p2)
        rb = tube_residual(case1, spec_b, p2)
        assert abs(ra - rb) <= 1e-11 * max(1.0, abs(ra))


def test_tube_residual_neutral_is_the_gram_residual(all_worlds):
    # a first-order tube answers with the first-order residual of its kind;
    # for the neutral kind that is the extended Gram residual to the last bit
    rng = np.random.default_rng(2)
    for w in all_worlds.values():
        for _ in range(20):
            p0, p1, p2 = timelike_triple(rng)
            spec = TubeSpec(Multivector(np.array([p0, p1])))
            assert tube_residual(w, spec, p2) == gram(w, Multivector(np.array([p0, p1, p2])))


@pytest.mark.parametrize("kind,tau", [("f", 1.5), ("p", 0.5)])
def test_tube_residual_honours_kind(case1, kind, tau):
    # a sampler root of the kind lies on the tube of that kind, which the
    # neutral tube through the same skeleton misses
    y = np.array([1.0, 0, 0, 0])
    [(_, [r])] = sample_axisymmetric_tube(case1, y, kind, [tau])
    on = tau * y + r * tubes.spacelike_unit_normal(case1, y)
    spec = TubeSpec(Multivector(np.array([np.zeros(4), y])), kind=kind)
    tol = membership_tolerance(case1, spec.skeleton.points)
    assert abs(tube_residual(case1, spec, on)) <= tol
    assert tube_residual(case1, spec, on) == first_order_residual(case1, kind, np.zeros(4), y, on)
    assert abs(tube_residual(case1, TubeSpec(spec.skeleton), on)) > 1e6 * tol
    # its section is the circle of radius r about the axis
    cands = [np.array([tau, r * np.cos(t), r * np.sin(t), 0.0])
             for t in np.linspace(0.0, np.pi, 5)]
    assert len(section_filter(case1, spec, on, cands, tol)) == len(cands)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factorization_matches_direct_residual(all_worlds):
    rng = np.random.default_rng(1)
    for name, w in all_worlds.items():
        checked = 0
        attempts = 0
        while checked < 500 and attempts < 5000:
            attempts += 1
            p0, p1, p2 = timelike_triple(rng)
            kind = "nfp"[checked % 3]
            try:
                f0, f1, f2, f3, _ = first_order_factors(w, kind, p0, p1, p2)
            except ComplexLengthError:
                continue
            direct = first_order_residual(w, kind, p0, p1, p2)
            prod = -f0 * f1 * f2 * f3
            assert abs(prod - direct) <= 1e-9 * max(1.0, abs(direct)), (name, kind)
            checked += 1
        assert checked == 500


def test_symmetric_world_kinds_coincide(minkowski):
    rng = np.random.default_rng(2)
    for _ in range(50):
        p0, p1, p2 = timelike_triple(rng)
        vals = {k: first_order_factors(minkowski, k, p0, p1, p2) for k in "nfp"}
        for k in "fp":
            assert np.allclose(vals[k], vals["n"], rtol=0, atol=1e-12)
        # eta vanishes for symmetric worlds
        assert abs(vals["n"][4]) < 1e-14


def test_constant_anisotropy_eta_vanishes(const_a4):
    rng = np.random.default_rng(3)
    for _ in range(50):
        p0, p1, p2 = timelike_triple(rng)
        *_, eta = first_order_factors(const_a4, "f", p0, p1, p2)
        assert abs(eta) < 1e-13


def test_case1_eta_closed_form(case1):
    rng = np.random.default_rng(4)
    # spot geometry fixed by hand plus random checks
    fixed = (np.array([2.0, 0, 0, 0]), np.zeros(4), np.array([1.0, 1, 0, 0]))
    triples = [fixed] + [timelike_triple(rng) for _ in range(20)]
    for p0, p1, p2 in triples:
        # factorization labels the triple edges cyclically (p1->p0, p0->p2, p2->p1)
        *_, eta = first_order_factors(case1, "f", p0, p1, p2)
        closed = eta_case1_closed(p1, p0, p2, 0.2, [1, 0, 0, 0], MINK)
        assert abs(eta - closed) < 1e-12


def test_negative_radicand_raises(minkowski):
    p0 = np.zeros(4)
    p1 = np.array([0.0, 1.0, 0, 0])  # spacelike pair
    with pytest.raises(ComplexLengthError):
        first_order_factors(minkowski, "f", p0, p1, np.array([1.0, 0, 0, 0]))


# ---------------------------------------------------------------------------
# segments and spheres
# ---------------------------------------------------------------------------

def test_segment_between_and_beyond(euclid2):
    assert segment_residual(euclid2, "n", (0, 0), (2, 0), (1, 0)) == pytest.approx(0.0, abs=1e-14)
    assert segment_residual(euclid2, "n", (0, 0), (2, 0), (3, 0)) > 0.0


def test_segment_kinds_agree_symmetric(minkowski):
    rng = np.random.default_rng(5)
    for _ in range(50):
        p0, p1, p2 = timelike_triple(rng)
        vals = [segment_residual(minkowski, k, p0, p1, p2) for k in "nfp"]
        assert max(vals) - min(vals) < 1e-12


def test_sphere_residual(euclid2, case1):
    assert sphere_residual(euclid2, (0, 0), (1, 0), (0, 1)) == pytest.approx(0.0, abs=1e-14)
    assert sphere_residual(euclid2, (0, 0), (1, 0), (2, 0)) == pytest.approx(1.0)
    # depends only on the symmetric part: value for an asymmetric world
    # equals the value for its symmetric part
    rng = np.random.default_rng(6)
    for _ in range(20):
        p0, p1, p2 = timelike_triple(rng)
        v = sphere_residual(case1, p0, p1, p2)
        sym_only = (np.sqrt(2 * case1.sym(p0, p2)) - np.sqrt(2 * case1.sym(p0, p1)))
        assert v == pytest.approx(sym_only, rel=1e-12)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def test_section_on_line_tube_is_minimal(euclid3):
    spec = TubeSpec(Multivector(np.array([[0, 0, 0], [1, 0, 0]], float)))
    on = np.array([0.5, 0.0, 0.0])
    tol = membership_tolerance(euclid3, spec.skeleton.points)
    cands = [on] + [np.array([0.5, 0.1 * k, 0.0]) for k in range(1, 5)]
    got = section_filter(euclid3, spec, on, cands, tol)
    assert len(got) == 1 and np.allclose(got[0], on)


def test_section_off_tube_raises(euclid3):
    spec = TubeSpec(Multivector(np.array([[0, 0, 0], [1, 0, 0]], float)))
    with pytest.raises(GeometryError):
        section_filter(euclid3, spec, np.array([0.5, 1.0, 0.0]), [], 1e-9)


def test_section_filter_rejects_wrong_dimension(euclid3):
    # candidates are evaluated in one world call; one of the wrong dimension
    # is still a dimension error, not a numpy shape error
    spec = TubeSpec(Multivector(np.array([[0, 0, 0], [1, 0, 0]], float)))
    on = np.array([0.5, 0.0, 0.0])
    for cands in ([np.array([0.5, 0.1])], [on, np.array([0.5, 0.1, 0.0, 0.0])]):
        with pytest.raises(DimensionMismatchError):
            section_filter(euclid3, spec, on, cands, 1e-9)


def test_empty_candidates(euclid3):
    spec = TubeSpec(Multivector(np.array([[0, 0, 0], [1, 0, 0]], float)))
    assert section_filter(euclid3, spec, np.array([0.5, 0, 0]), [], 1e-9) == []


def test_section_contains_waist_sphere(case1):
    # at a waist point of the axisymmetric tube, the section holds the full
    # sphere of that radius (sampled): rotate the normal component
    w = world("case1", b=[1, 0, 0, 0], alpha=0.1)
    y = np.array([1.0, 0, 0, 0])
    [(_, radii)] = sample_axisymmetric_tube(w, y, "n", [0.5])
    r = radii[0]
    spec = TubeSpec(Multivector(np.array([np.zeros(4), y])))
    on = np.array([0.5, r, 0.0, 0.0])
    tol = 1e-9 * 16.0
    cands = []
    for theta in np.linspace(0, 2 * np.pi, 17):
        cands.append(np.array([0.5, r * np.cos(theta), r * np.sin(theta), 0.0]))
    got = section_filter(w, spec, on, cands, tol)
    assert len(got) == len(cands)
    # every member satisfies the tube residual within derived tolerance
    for p in got:
        assert abs(tube_residual(w, spec, p)) <= 1e-8


# ---------------------------------------------------------------------------
# axisymmetric sampler
# ---------------------------------------------------------------------------

def test_sampler_matches_closed_form():
    y = np.array([1.0, 0, 0, 0])
    taus = np.linspace(-1, 2, 41)
    for g in (0.1, 0.3, 0.5):
        w = world("case1", b=[1, 0, 0, 0], alpha=g)
        for tau, radii in sample_axisymmetric_tube(w, y, "n", taus):
            want = case1_radii(tau, g)
            assert len(radii) == len(want)
            for a, b in zip(radii, want):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-9)


def test_sampler_waist_symmetry():
    w = world("case1", b=[1, 0, 0, 0], alpha=0.25)
    y = np.array([1.0, 0, 0, 0])
    taus = np.linspace(0.1, 0.9, 17)
    prof = dict(sample_axisymmetric_tube(w, y, "n", taus))
    for tau in taus:
        left = prof[tau]
        right = prof[round(1.0 - tau, 12)] if round(1.0 - tau, 12) in prof else None
        if right is None:
            continue
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_sampler_alpha_zero_line():
    w = world("case1", b=[1, 0, 0, 0], alpha=0.0)
    y = np.array([1.0, 0, 0, 0])
    for tau, radii in sample_axisymmetric_tube(w, y, "n", [0.25, 0.5, 0.75]):
        assert radii == [0.0]


def test_sampler_empty_center_strong_asymmetry():
    w = world("case1", b=[1, 0, 0, 0], alpha=0.8)
    y = np.array([1.0, 0, 0, 0])
    [(_, radii)] = sample_axisymmetric_tube(w, y, "n", [0.5])
    assert radii == []


def test_sampler_validates_inputs(case1):
    y_space = np.array([0.0, 1.0, 0, 0])
    with pytest.raises(GeometryError, match="timelike"):
        sample_axisymmetric_tube(case1, y_space, "n", [0.5])
    w_misaligned = world("case1", b=[1, 0.5, 0, 0], alpha=0.2)
    with pytest.raises(GeometryError, match="aligned"):
        sample_axisymmetric_tube(w_misaligned, np.array([1.0, 0, 0, 0]), "n", [0.5])


@pytest.mark.parametrize("label", ["case1", "custom"])
def test_sampler_needs_a_world_spec(case1, label):
    # a callable world has no spec to read the metric and covector from,
    # whatever its label says; it is refused before any world call
    calls = []

    def counted(a, b):
        calls.append(1)
        return case1(a, b)

    w = world_from_callable(counted, 4, label=label)
    with pytest.raises(GeometryError, match="WorldSpec"):
        sample_axisymmetric_tube(w, np.array([1.0, 0, 0, 0]), "n", [0.5])
    assert calls == []


@pytest.mark.parametrize("tau, reason", [(1e20, "round-off"), (1e100, "round-off"),
                                         (1e300, "not finite"), (1e308, "rmax overflows"),
                                         (-1e308, "rmax overflows")])
def test_sampler_huge_tau_is_geometry_error(tau, reason):
    # far out the residual cancels to round-off on every probe, or
    # overflows, or the search radius does: an error naming the tau, not
    # roots at the probe radii
    w = world("case1", b=[1, 0, 0, 0], alpha=0.1)
    for kind in ("n", "f", "p"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=re.escape(f"{reason} at tau {tau!r}")):
                sample_axisymmetric_tube(w, np.array([1.0, 0, 0, 0]), kind, [0.5, tau])


@pytest.mark.parametrize("doc", [dict(kind="case1", b=[1, 0, 0, 0], alpha=0.1),
                                 dict(kind="case2", b=[1, 0, 0, 0], alpha=0.2, beta=1.0)],
                         ids=["case1", "case2"])
@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_sampler_rejects_non_finite_tau_before_world_calls(doc, tau):
    # the sampler owns its tau contract: a ValueError that says so, not a
    # non-finite-coordinate error, a numpy warning or a world call
    w = world(**doc)
    calls = []
    evaluate = w._eval

    def counted(x, xp):
        calls.append(1)
        return evaluate(x, xp)

    w._eval = counted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in ([tau], [0.5, tau]):
            with pytest.raises(ValueError, match="tau_grid must be finite"):
                sample_axisymmetric_tube(w, np.array([1.0, 0, 0, 0]), "n", grid)
    assert calls == []


def test_sampler_directed_kinds_run(case1):
    # future/past profiles exist and differ from the neutral one when the
    # antisymmetric part is nonconstant
    y = np.array([1.0, 0, 0, 0])
    w = world("case1", b=[1, 0, 0, 0], alpha=0.1)
    taus = [0.3, 0.5, 0.7]
    neutral = dict(sample_axisymmetric_tube(w, y, "n", taus))
    for kind in "fp":
        prof = dict(sample_axisymmetric_tube(w, y, kind, taus))
        assert set(prof) == set(neutral)
        assert any(
            len(prof[t]) != len(neutral[t])
            or any(abs(a - b) > 1e-6 for a, b in zip(prof[t], neutral[t]))
            for t in taus
        )


def test_screened_spacelike_extent_bounded(case2):
    # the spacelike extent of the screened tube is bounded: beyond a ring of
    # solutions hugging the world function's pole surface there is nothing,
    # even though the search bracket extends far further
    y = np.array([1.0, 0, 0, 0])
    with np.errstate(all="ignore"):
        [(_, radii)] = sample_axisymmetric_tube(case2, y, "n", [0.0])
    assert radii, "the spacelike section is nonempty"
    assert max(radii) < 2.0


def test_sampler_scaled_y_uses_reduced_units():
    # radii are reported in units of |y|; the asymmetry strength scales with |y|
    g_combo = 0.2  # alpha * |y| with alpha = 0.1, |y| = 2
    w = world("case1", b=[1, 0, 0, 0], alpha=0.1)
    y = np.array([2.0, 0, 0, 0])
    [(_, radii)] = sample_axisymmetric_tube(w, y, "n", [0.5])
    want = case1_radii(0.5, g_combo)
    assert len(radii) == len(want)
    for a, b in zip(radii, want):
        assert a == pytest.approx(b, rel=1e-8)


def test_sampler_whole_grid_equals_per_tau_calls():
    # each tau's profile, including its default rmax, is independent of the
    # rest of the grid and of the block it is sampled in
    w = world("case1", b=[1, 0, 0, 0], alpha=0.65)
    y = np.array([1.0, 0, 0, 0])
    taus = np.linspace(-40.0, 40.0, 2 * tubes._TAU_BLOCK + 7)
    whole = sample_axisymmetric_tube(w, y, "n", taus)
    assert len(whole) == len(taus)
    for tau, (got_tau, radii) in zip(taus, whole):
        [(one_tau, one_radii)] = sample_axisymmetric_tube(w, y, "n", [tau])
        assert got_tau == one_tau == float(tau)
        assert radii == one_radii


def _closed_form_merged(tau, g):
    """case1_radii with the sampler's fold rule: roots closer than
    tubes._FOLD_TOL (1 + r) are one root."""
    merged = []
    for r in case1_radii(tau, g):
        if not (merged and abs(r - merged[-1]) < tubes._FOLD_TOL * (1.0 + r)):
            merged.append(r)
    return merged


def _assert_case1_profile(g, taus, merge=False):
    w = world("case1", b=[1, 0, 0, 0], alpha=g)
    for tau, radii in sample_axisymmetric_tube(w, np.array([1.0, 0, 0, 0]), "n", taus):
        want = _closed_form_merged(tau, g) if merge else case1_radii(tau, g)
        assert len(radii) == len(want), (g, tau, radii, want)
        for got, ref in zip(radii, want):
            assert abs(got - ref) <= 1e-6 * max(abs(ref), 1e-3), (g, tau, radii, want)


@pytest.mark.parametrize("ratio", [1.001, 1.01, 1.03, 1.05])
def test_sampler_finds_hidden_pairs(ratio):
    # a closed-form pair r2 / r1 = ratio lies inside one probe interval, with
    # no sign change at the probes; the extremum search between them finds it
    g = 0.65
    disc = ((ratio - 1.0) / (ratio + 1.0)) ** 2
    tau = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * (disc - 1.0) / (12.0 * g * g)))
    assert len(case1_radii(tau, g)) == 2
    _assert_case1_profile(g, [tau])


@pytest.mark.parametrize("g", [3.0**-0.5, 0.5773502])
def test_sampler_finds_near_fold_pairs(g):
    # at the waist of a tube about to close, the pair is 1.8e-8 apart at
    # g = 1/sqrt(3) (one fold root) and 8.5e-4 apart at g = 0.5773502
    assert len(case1_radii(0.5, g)) == 2
    _assert_case1_profile(g, [0.5], merge=True)


def test_sampler_large_tau_pairs():
    # the pair is 1/g = 10 apart at r ~ 1.73 tau, inside one probe interval
    _assert_case1_profile(0.1, [1e4, 1e5, 1e6, 1e7, 1e8])


@pytest.mark.parametrize("tau", [10.0**e for e in range(3, 17)])
def test_sampler_large_tau_matches_or_raises(tau):
    # far out the world values cancel to round-off in the symmetric parts
    # the residual is built from: either the closed form or an error
    # naming the tau, never a wrong profile
    w = world("case1", b=[1, 0, 0, 0], alpha=0.1)
    try:
        [(_, radii)] = sample_axisymmetric_tube(w, np.array([1.0, 0, 0, 0]), "n", [tau])
    except GeometryError as exc:
        assert f"round-off at tau {tau!r}" in str(exc)
        return
    want = case1_radii(tau, 0.1)
    assert len(radii) == len(want)
    for got, ref in zip(radii, want):
        assert abs(got - ref) <= 1e-6 * ref


def test_sampler_unsigned_axis_run_is_not_a_root():
    # on case2 at tau 1e4 every probe below r = 0.19 is within round-off; the
    # root at r = 0.0666666687 (50-digit arithmetic) lies among them, and
    # r = 0 is no root: either that root or an error naming the tau
    w = world("case2", b=[1, 0, 0, 0], alpha=0.1, beta=0.5)
    try:
        [(_, radii)] = sample_axisymmetric_tube(w, np.array([1.0, 0, 0, 0]), "n", [1e4])
    except GeometryError as exc:
        assert "round-off at tau 10000.0" in str(exc)
    else:
        assert len(radii) == 1 and abs(radii[0] - 0.0666666687) <= 1e-6


def test_sampler_flat_axis_root():
    # a flat world's tube is its axis, a double root at r = 0.  The proxy
    # sees the residual's root pair +-r about the axis as one root of the
    # section there, however wide the round-off band around the axis grows
    # with |tau|
    y = np.array([1.0, 0, 0, 0])
    taus = [-5.0, -1.0, 0.5, 3.0, 5.5, 100.0, 1e4, 1e8]
    for w in (world("euclidean"), world("constant_a", b=[0.3, 0, 0, 0])):
        for kind in "nfp":
            assert sample_axisymmetric_tube(w, y, kind, taus) == [(tau, [0.0]) for tau in taus]


_DENSE_TAUS = np.linspace(-3.0, 4.0, 61)


def _grid_only(patch):
    # the proxy settles no tau, so the probe grid takes every one
    proxy = tubes._proxy_brackets

    def settles_none(signed_residual, taus, rmaxs, degree, even):
        settled, _ = proxy(signed_residual, taus[:0], rmaxs[:0], degree, even)
        return settled, np.arange(len(taus))

    patch.setattr(tubes, "_proxy_brackets", settles_none)


@pytest.mark.parametrize("family,strength",
                         [("case1", g) for g in (0.02, 0.1, 0.3, 0.57, 0.65, 2.0)]
                         + [("cubic_a", scale) for scale in (0.03, 0.3, 1.0)])
def test_sampler_matches_a_dense_probe_grid(monkeypatch, family, strength):
    # the proxy, with the probe grid and the extremum search behind it, finds
    # what the probe grid alone finds with 4096 probes
    if family == "case1":
        w = world("case1", b=[1, 0, 0, 0], alpha=strength)
    else:
        w = world("cubic_a", a3=random_a3(scale=strength, seed=7).ravel().tolist())
    y = np.array([1.0, 0, 0, 0])
    for kind in "nfp":
        got = sample_axisymmetric_tube(w, y, kind, _DENSE_TAUS)
        with monkeypatch.context() as patch:
            _grid_only(patch)
            patch.setattr(tubes, "_PROBES", 4096)
            want = sample_axisymmetric_tube(w, y, kind, _DENSE_TAUS)
        for (tau, radii), (_, ref) in zip(got, want):
            assert len(radii) == len(ref), (kind, tau, radii, ref)
            for a, b in zip(radii, ref):
                assert abs(a - b) <= 1e-6 * max(abs(b), 1e-3), (kind, tau, radii, ref)


def test_proxy_roots_polish_on_the_proxy_slope(monkeypatch):
    # a proxy bracket has two signed ends, so _settle reads no residual
    # either side of its root and polishes it on the proxy's slope: the
    # radii are those of the side-slope polish, and each proxy root reads 8
    # points fewer, two radii of four world points each
    base = world("case1", b=[1, 0, 0, 0], alpha=0.2)
    y = np.array([1.0, 0, 0, 0])
    proxy = tubes._proxy_brackets
    roots = []

    def side_slopes(*args):
        settled, rest = proxy(*args)
        roots.append(len(settled[1]))
        return (*settled[:7], np.full(len(settled[1]), np.nan), *settled[8:]), rest

    for kind in "nfp":
        runs = []
        roots.clear()
        for reference in (False, True):
            sizes = []

            def counted(a, b):
                sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1],
                                                             np.shape(b)[:-1]))))
                return base(a, b)

            w = WorldFunction(counted, 4, spec=base.spec, label=base.kind)
            with monkeypatch.context() as patch:
                if reference:
                    patch.setattr(tubes, "_proxy_brackets", side_slopes)
                runs.append((sample_axisymmetric_tube(w, y, kind, _DENSE_TAUS), sum(sizes)))
        (got, points), (want, side_points) = runs
        assert got == want, kind
        assert sum(roots) > 0 and side_points - points == 8 * sum(roots), kind


def test_colleague_roots_of_chebyshev_series():
    # rows of one series each: three real roots, a complex pair, one root,
    # and a constant without any; a row's roots fill from the left
    nodes, to_coef = tubes._chebyshev_nodes(7)
    polys = [lambda x: (x - 0.3) * (x + 0.5) * (x - 0.9), lambda x: x * x + 0.25,
             lambda x: 2.0 * x - 1.0, lambda x: 3.0 + 0.0 * x]
    coef = np.array([to_coef @ f(nodes) for f in polys])
    coef[np.abs(coef) < 1e-14] = 0.0  # round-off of the exact zeros
    roots = tubes._colleague_roots(coef)
    assert roots.shape == (4, 6)
    assert np.allclose(np.sort(roots[0, :3].real), [-0.5, 0.3, 0.9], atol=1e-14)
    assert np.allclose(np.sort_complex(roots[1, :2]), [-0.5j, 0.5j], atol=1e-14)
    assert np.allclose(roots[2, :1], [0.5], atol=1e-15)
    assert np.isnan(roots[0, 3:]).all() and np.isnan(roots[3]).all()


def test_sampler_proxy_finds_a_cubic_pair_between_probes():
    # on this strongly cubic world two root pairs lie at these taus, the
    # roots of a pair 1.1 to 1.3x apart; the proxy finds both, where a dense
    # signed scan changes sign
    w = world("cubic_a", a3=random_a3(scale=1.0, seed=548).ravel().tolist())
    y = np.array([1.0, 0, 0, 0])
    e_perp = tubes.spacelike_unit_normal(w, y)
    for tau, radii in sample_axisymmetric_tube(w, y, "n", [-200.0, -100.0]):
        rs = np.linspace(0.0, 1010.0, 200001)  # rmax at these taus
        res, bound = tubes._first_order("n", *tubes._triple_worlds(
            w, np.zeros(4), y, tau * y + rs[:, None] * e_perp), roundoff=True)
        signed = np.abs(res) > tubes._ROUNDOFF * tubes._EPS * np.maximum(bound, 1.0)
        sign, at = np.sign(res[signed]), rs[signed]
        changes = at[np.flatnonzero(sign[1:] != sign[:-1])]
        assert len(radii) == len(changes) == 4
        assert np.allclose(radii, changes, rtol=0.0, atol=2 * (rs[1] - rs[0]))


def test_sampler_grid_alone_finds_the_cubic_pairs(monkeypatch):
    # the same world over a sweep of taus: the grid alone, as a tau that
    # falls back to it sees it, finds both root pairs, as the proxy does
    w = world("cubic_a", a3=random_a3(scale=1.0, seed=548).ravel().tolist())
    y = np.array([1.0, 0, 0, 0])
    taus = np.arange(-400.0, -85.0, 10.0)
    want = sample_axisymmetric_tube(w, y, "n", taus)
    _grid_only(monkeypatch)
    for (tau, radii), (_, ref) in zip(sample_axisymmetric_tube(w, y, "n", taus), want):
        assert len(radii) == len(ref) == 4, (tau, radii, ref)
        assert np.allclose(radii, ref, rtol=1e-9, atol=0.0), (tau, radii, ref)


def test_sampler_polish_onto_a_pole_is_quiet():
    # on this screened world a root's Newton polish steps onto the pole: the
    # step is rejected, and no numpy warning escapes
    w = world("case2", b=[1, 0, 0, 0], alpha=2.0, beta=1.0)
    y = np.array([1.0, 0, 0, 0])
    e_perp = tubes.spacelike_unit_normal(w, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = sample_axisymmetric_tube(w, y, "n", [0.0, 1.0])
    assert [len(radii) for _, radii in profile] == [3, 3]
    for tau, radii in profile:
        for r in radii:
            res = first_order_residual(w, "n", np.zeros(4), y, tau * y + r * e_perp)
            assert abs(res) <= 1e-10 * (1.0 + tau * tau + r * r) ** 2


def _no_grid(*args):
    raise AssertionError("the probe grid was entered")


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.57, 0.66])
def test_sampler_proxy_alone_on_case1_sections(monkeypatch, alpha):
    # the benchmark's case1 worlds (weak, mid, near the fold, with a hole)
    # on its tau range: the proxy settles every section, and its radii are
    # the closed form's
    monkeypatch.setattr(tubes, "_grid_brackets", _no_grid)
    w = world("case1", b=[1, 0, 0, 0], alpha=alpha)
    y = np.array([1.0, 0, 0, 0])
    taus = np.linspace(-0.95, 1.95, 6)
    for kind in "nfp":
        profile = sample_axisymmetric_tube(w, y, kind, taus)
        if kind == "n":
            for tau, radii in profile:
                want = case1_radii(tau, alpha)
                assert len(radii) == len(want)
                assert all(abs(a - b) <= 1e-10 * max(b, 1e-3) for a, b in zip(radii, want))


def test_sampler_cubic_near_axis_roots_through_the_grid(monkeypatch):
    # roots below 1e-4 on this weak cubic world are beyond the proxy's
    # resolution near the axis: those taus go to the probe grid, which finds
    # them
    w = world("cubic_a", a3=random_a3(scale=0.05, seed=7).ravel().tolist())
    y = np.array([1.0, 0, 0, 0])
    taus = [-1.0, 0.5, 2.0]
    profile = sample_axisymmetric_tube(w, y, "n", taus)
    assert all(0.0 < radii[0] < 1e-4 for _, radii in profile)
    e_perp = tubes.spacelike_unit_normal(w, y)
    for tau, radii in profile:
        for r in radii:
            res = first_order_residual(w, "n", np.zeros(4), y, tau * y + r * e_perp)
            assert abs(res) <= 1e-10 * (1.0 + tau * tau + r * r) ** 2
    monkeypatch.setattr(tubes, "_grid_brackets", _no_grid)
    with pytest.raises(AssertionError, match="probe grid"):
        sample_axisymmetric_tube(w, y, "n", taus)


#: root counts of the 256-probe sampler without the extremum search, on
#: case2 at the taus linspace(-1, 2, 13)
_CASE2_COUNTS = {
    (0.2, 1.0): {"n": [3, 5, 5, 3, 3, 5, 3, 5, 3, 3, 5, 5, 3],
                 "f": [1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 2, 2, 0],
                 "p": [0, 0, 0, 0, 1, 0, 0, 0, 1, 3, 3, 3, 3]},
    (0.18, 0.9): {"n": [3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5, 3],
                  "f": [1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 2, 2],
                  "p": [0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 3, 3]},
    (0.22, 1.1): {"n": [5, 3, 5, 3, 3, 3, 3, 3, 3, 3, 5, 3, 5],
                  "f": [1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0, 2, 2],
                  "p": [0, 0, 0, 0, 1, 0, 0, 0, 1, 3, 3, 3, 3]},
}


@pytest.mark.parametrize("alpha,beta", list(_CASE2_COUNTS))
def test_sampler_case2_keeps_its_roots(alpha, beta):
    # the root pairs either side of case2's pole spike: the extremum search
    # adds some, and every root zeroes the residual
    w = world("case2", b=[1, 0, 0, 0], alpha=alpha, beta=beta)
    y = np.array([1.0, 0, 0, 0])
    e_perp = tubes.spacelike_unit_normal(w, y)
    for kind, before in _CASE2_COUNTS[(alpha, beta)].items():
        profile = sample_axisymmetric_tube(w, y, kind, np.linspace(-1.0, 2.0, 13))
        assert all(len(radii) >= n for (_, radii), n in zip(profile, before)), kind
        for tau, radii in profile:
            for r in radii:
                res = first_order_residual(w, kind, np.zeros(4), y, tau * y + r * e_perp)
                assert abs(res) <= 1e-10 * (1.0 + tau * tau + r * r) ** 2


def test_sampler_is_free_of_the_world_scale():
    # metric and b scaled by 2**332, with alpha (case1) or beta (case2)
    # scaled by its inverse, scale the world function exactly; the residual,
    # second degree in it, would reach about 1e200, and its products would
    # overflow, were the world values not read in the world's unit.  With
    # RuntimeWarnings as errors, the profiles equal the unit-scale ones bit
    # for bit
    s = 2.0 ** 332
    y = np.array([1.0, 0, 0, 0])
    taus = np.linspace(-1.0, 2.0, 13)

    def scaled(kind, scale, **params):
        return world(kind, metric=(scale * MINK).tolist(), b=[scale, 0, 0, 0], **params)

    worlds = [("case1", scaled("case1", 1.0, alpha=0.2), scaled("case1", s, alpha=0.2 / s)),
              ("case2", scaled("case2", 1.0, alpha=0.2, beta=1.0),
               scaled("case2", s, alpha=0.2, beta=1.0 / s))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for family, unit, big in worlds:
            for kind in "nfp":
                want = sample_axisymmetric_tube(unit, y, kind, taus)
                assert sample_axisymmetric_tube(big, y, kind, taus) == want, (family, kind)


def test_sampler_evaluates_the_skeleton_pair_once():
    # w(origin, y) and w(y, origin) are fixed for a call; every other world
    # call carries probe points
    w = world("case1", b=[1, 0, 0, 0], alpha=0.3)
    single = []
    evaluate = w._eval

    def counted(x, xp):
        single.append(np.ndim(x) == np.ndim(xp) == 1)
        return evaluate(x, xp)

    w._eval = counted
    sample_axisymmetric_tube(w, np.array([1.0, 0, 0, 0]), "f", np.linspace(-1.0, 2.0, 7))
    assert sum(single) == 2 and len(single) > 2


def test_extremum_search_outcomes():
    # a minimum above zero, one below it (a crossing between two positive
    # points) and one at zero, each searched from three points around it
    funcs = [lambda x: (x - 0.3) ** 2 + 0.5, lambda x: (x - 0.3) ** 2 - 0.01,
             lambda x: (x - 0.3) ** 2]
    a, x, b = np.zeros(3), np.full(3, 0.2), np.ones(3)

    def f(index, z):
        return np.array([funcs[i](v) for i, v in zip(index, z)])

    every = np.arange(3)
    lo, x, hi, f_lo, f_x, f_hi = tubes._brent_min(f, np.ones(3), a, x, b, f(every, a),
                                                   f(every, x), f(every, b))
    assert x[0] == pytest.approx(0.3, abs=1e-6) and f_x[0] == pytest.approx(0.5, rel=1e-12)
    assert f_x[1] < 0 < min(f_lo[1], f_hi[1]) and lo[1] < x[1] < hi[1]
    assert x[2] == pytest.approx(0.3, abs=1e-7) and 0.0 <= f_x[2] <= 1e-14
    assert np.array_equal(f(every, lo), f_lo) and np.array_equal(f(every, hi), f_hi)


def _scalar_brackets():
    """(f, a, b, xtol) brackets: cos x - x, a cubic and a sampler bracket."""
    cubic = lambda x: x**3 - 2.0 * x - 5.0  # noqa: E731
    brackets = [(lambda x: math.cos(x) - x, a, b, 2e-12) for a, b in
                ((0.0, 1.0), (-1.0, 2.0), (0.5, 0.9))]
    brackets += [(cubic, a, b, 1e-12 * (1.0 + b)) for a, b in ((2.0, 3.0), (-10.0, 10.0))]
    w = world("case1", b=[1, 0, 0, 0], alpha=0.1)
    y = np.array([1.0, 0, 0, 0])
    e_perp = tubes.spacelike_unit_normal(w, y)
    origin = np.zeros(4)

    def tube(r):
        return first_order_residual(w, "n", origin, y, 0.5 * y + r * e_perp)

    grid = np.geomspace(1e-6, 200.0, 255)
    vals = [tube(r) for r in grid]
    found = [(tube, float(grid[i]), float(grid[i + 1]), 1e-12 * (1.0 + float(grid[i + 1])))
             for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0.0]
    assert len(found) == 2
    return brackets + found


def test_brent_matches_scipy_brentq_bit_for_bit():
    optimize = pytest.importorskip("scipy.optimize")
    brackets = _scalar_brackets()
    fns = [f for f, *_ in brackets]
    xa = np.array([a for _, a, _, _ in brackets])
    xb = np.array([b for _, _, b, _ in brackets])
    xtol = np.array([t for *_, t in brackets])

    def f(index, x):
        return np.array([fns[i](v) for i, v in zip(index, x)])

    roots, froots = tubes._brent(f, xa, xb, f(range(len(fns)), xa), f(range(len(fns)), xb),
                                 xtol, 1e-15)
    for (fn, a, b, tol), root, froot in zip(brackets, roots, froots):
        assert root == optimize.brentq(fn, a, b, xtol=tol, rtol=1e-15)
        assert froot == fn(root)


def test_brent_failures_carry_detail():
    # a residual that turns NaN inside the bracket, on the first iteration
    def nan_inside(index, x):
        return np.full(len(index), np.nan)

    with pytest.raises(tgeom.SolverError, match="NaN residual") as info:
        tubes._brent(nan_inside, np.zeros(2), np.ones(2), -np.ones(2), np.ones(2), 1e-12, 1e-15)
    assert info.value.detail == {"brackets": 2, "iteration": 0}


def test_brent_iteration_cap_carries_detail():
    # a sign step at 0.3 with no tolerance: the bracket shrinks to two
    # neighbouring floats, then every step rounds back onto its end
    def step(index, x):
        return np.where(x < 0.3, -1.0, 1.0)

    with pytest.raises(tgeom.SolverError, match="did not converge in 100") as info:
        tubes._brent(step, np.zeros(2), np.ones(2), -np.ones(2), np.ones(2), 0.0, 0.0)
    assert info.value.detail == {"brackets": 2, "iteration": tubes._BRENT_MAXITER}


def test_extremum_search_failures_carry_detail():
    a, x, b = np.zeros(2), np.full(2, 0.2), np.ones(2)
    ends, inside = np.full(2, 2.0), np.ones(2)

    # a residual that turns NaN inside the interval, on the first step
    def nan_inside(index, z):
        return np.full(len(index), np.nan)

    with pytest.raises(tgeom.SolverError, match="NaN residual inside an extremum") as info:
        tubes._brent_min(nan_inside, np.ones(2), a, x, b, ends, inside, ends)
    assert info.value.detail == {"intervals": 2, "iteration": 0}

    # a flat plateau 1e30 wide: golden sections shrink it by 0.62 a step,
    # far too slowly to reach the search's tolerance in 100 steps
    def plateau(index, z):
        return np.where(np.abs(z) < 1e30, 1.0, 2.0)

    a, x, b = np.full(2, -1e30), np.array([0.0, 5e29]), np.full(2, 1e30)
    with pytest.raises(tgeom.SolverError, match="did not converge in 100") as info:
        tubes._brent_min(plateau, np.ones(2), a, x, b, ends, inside, ends)
    assert info.value.detail == {"intervals": 2, "iteration": tubes._BRENT_MAXITER}


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgeom.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    # every public name, since a bare import loads no submodule
    code = "import sys\nfrom tgeom import *\nsys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# broken tubes
# ---------------------------------------------------------------------------

def test_chain_collinear_flat(minkowski):
    v = np.array([1.0, 0.2, 0, 0])
    v = v / np.sqrt(v @ MINK @ v)
    mu = 0.1
    p0 = np.zeros(4)
    p1 = p0 + mu * v
    chain = build_broken_tube(minkowski, "f", p0, p1, mu, steps=10)
    straight = np.array([p0 + i * mu * v for i in range(12)])
    assert np.max(np.abs(chain.vertices - straight)) < 1e-10
    assert np.max(chain.length_residuals) < 1e-10
    assert np.max(chain.sym_length_residuals) < 1e-10
    assert np.max(np.abs(chain.parallel_residuals)) < 1e-8 * mu**2
    assert not any(chain.multiplicity_flags)


def test_chain_kinds_coincide_symmetric(minkowski):
    v = np.array([1.0, 0.1, -0.05, 0.02])
    v = v / np.sqrt(v @ MINK @ v)
    mu = 0.2
    p0 = np.zeros(4)
    p1 = p0 + mu * v
    chains = {k: build_broken_tube(minkowski, k, p0, p1, mu, steps=6) for k in "nfp"}
    for k in "fp":
        assert np.max(np.abs(chains[k].vertices - chains["n"].vertices)) < 1e-9


def test_chain_world_point_budget(cubic):
    # 4 steps, each a step solve and the chord-step test that clears its
    # probe: a residual reads two 16-point gradients and one length, a
    # Jacobian two 21-point (0, 2) stencils on the seven-point rule and the
    # constraint gradient of its point.  The start multiplier takes the
    # guess's gradients (32 points), which the solve's first residual
    # reuses; the solve takes 2 iterations (151 points).  The test takes
    # the solve's last Jacobian and the residual at the probe's start (3
    # calls, 33 points); no probe solve runs.  The seed check takes one
    # point, and the lengths and parallelism of the chain four calls (18),
    # one per ordered pair of neighbours or of next neighbours
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    p1 = advance_seed(cubic, "f", np.zeros(4), v, 0.1)
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return cubic(a, b)

    chain = build_broken_tube(world_from_callable(counted, 4), "f", np.zeros(4), p1, 0.1, 4)
    assert np.max(chain.length_residuals) < 1e-10
    assert (len(sizes), sum(sizes)) == (69, 883)


@pytest.mark.parametrize("shift", [10.0, 1e3, 1e5])
def test_seed_and_chain_far_from_the_origin(minkowski, shift):
    # the round-off of a length grows with the coordinates beyond the seed's
    # and the step's targets: a solve that stalls within its acceptance is
    # taken, from a seed built there or one moved there from the origin
    cub = world("cubic_a", a3=random_a3(scale=0.05, seed=3).ravel().tolist())
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    p0 = shift * np.array([1.0, -0.5, 0.25, 0.1])
    for w in (minkowski, cub):
        seeds = [(p0, advance_seed(w, "f", p0, v, 0.1)),
                 (p0, p0 + advance_seed(w, "f", np.zeros(4), v, 0.1))]
        for a, b in seeds:
            chain = build_broken_tube(w, "f", a, b, 0.1, 6)
            assert np.max(chain.length_residuals) <= 1e-10


def quartic_world(c, sizes=None):
    # a quartic spacelike term c xi_1^4 / 4 puts two more stationary points
    # of a step along e0 at xi_1 = +-1/sqrt(c) from the straight continuation;
    # sizes, if given, collects the points of each world call
    def evaluate(x, xp):
        if sizes is not None:
            sizes.append(int(np.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(xp)[:-1]))))
        xi = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
        return 0.5 * (xi[..., 0] ** 2 - xi[..., 1] ** 2) + 0.25 * c * xi[..., 1] ** 4
    return world_from_callable(evaluate, 2)


def test_multiplicity_flag_fires_on_nearby_extrema():
    # stationary points 0.04 mu either side of the straight continuation lie
    # between it and the probe's shifted seed: the probe solve settles on
    # one and flags the step
    mu = 0.1
    p0, p1 = np.zeros(2), np.array([mu, 0.0])
    for c, flagged in ((0.0, False), (1e3, False), ((0.04 * mu) ** -2, True)):
        chain = build_broken_tube(quartic_world(c), "f", p0, p1, mu, 3)
        assert np.allclose(chain.vertices[:, 1], 0.0)  # the straight continuation
        assert chain.multiplicity_flags == [flagged] * 3, c


def _chain_or_error(w, kind, p0, p1, mu, steps):
    try:
        return build_broken_tube(w, kind, p0, p1, mu, steps)
    except GeometryError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_chain(chain, ref):
    if isinstance(ref, str):  # a stalled step, on both sides
        assert chain == ref
        return
    assert chain.multiplicity_flags == ref.multiplicity_flags
    for name in ("vertices", "length_residuals", "sym_length_residuals",
                 "parallel_residuals"):
        assert np.array_equal(getattr(chain, name), getattr(ref, name)), name


@pytest.mark.parametrize("offset", [0.005, 0.02, 0.04, 0.1, 0.15, 0.5, 1.0, 2.0])
def test_quartic_flags_match_the_always_probe_reference(monkeypatch, offset):
    # extra stationary points offset mu either side of each step's root: up
    # to 0.1 mu the chord-step test must leave the probe solve to run, and
    # it flags the step; from 0.15 mu on no probe settles on them
    mu = 0.1
    p0, p1 = np.zeros(2), np.array([mu, 0.0])
    sizes, ref_sizes, solves = [], [], []
    solve = tubes.newton

    def newton(*args):
        solves.append(1)
        return solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(tubes, "newton", newton)
        chain = build_broken_tube(quartic_world((offset * mu) ** -2, sizes), "f", p0, p1, mu, 3)
    with monkeypatch.context() as patch:
        patch.setattr(tubes, "_isolated", lambda *args: False)  # probe every step
        ref = build_broken_tube(quartic_world((offset * mu) ** -2, ref_sizes), "f", p0, p1,
                                mu, 3)
    _assert_same_chain(chain, ref)
    assert chain.multiplicity_flags == [offset <= 0.1] * 3
    if offset <= 0.1:
        assert len(solves) == 6  # each step's solve and its probe's
        # the straight continuation solves each step, so the test reads the
        # residual and the Jacobian at the probe's start, and the probe
        # solve reuses all of it but the residual's 1-point length
        assert (len(sizes) - len(ref_sizes), sum(sizes) - sum(ref_sizes)) == (3, 3)


def test_singular_jacobian_proves_no_isolation():
    # the chord step of a singular Jacobian is not defined, so the test
    # cannot clear the step, even where the residual is zero
    for m in (np.zeros((2, 2)), np.diag([0.0, 1.0])):
        assert not tubes._isolated(lambda z: np.zeros(2), m, np.zeros(2), np.ones(2))
    assert tubes._isolated(lambda z: z, np.eye(2), np.zeros(2), np.ones(2))


def test_failed_probe_solve_leaves_the_step_unflagged(monkeypatch):
    # the probe solves that would settle on the nearby extrema and flag
    # every step raise SolverError instead: no second root is shown, so no
    # step is flagged, and the chain keeps its vertices
    mu = 0.1
    p0, p1 = np.zeros(2), np.array([mu, 0.0])
    w = quartic_world((0.04 * mu) ** -2)
    ref = build_broken_tube(w, "f", p0, p1, mu, 3)
    solve, solves = tubes.newton, []

    def newton(*args):
        solves.append(1)
        if len(solves) % 2 == 0:  # the probe solve after each step's solve
            raise SolverError("singular Jacobian", {})
        return solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(tubes, "newton", newton)
        patch.setattr(tubes, "_isolated", lambda *args: False)  # probe every step
        chain = build_broken_tube(w, "f", p0, p1, mu, 3)
    assert len(solves) == 6
    assert ref.multiplicity_flags == [True] * 3
    assert chain.multiplicity_flags == [False] * 3
    assert np.array_equal(chain.vertices, ref.vertices)


def _assert_flags_match_the_always_probe_reference(monkeypatch, w):
    # the same flags, vertices and residuals with the chord-step test as
    # with a probe solve at every step; a chain that stalls, or that ends
    # with a complex segment length, fails the same way on both sides
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    p0 = np.zeros(4)
    for mu in (0.03, 0.1, 0.3):
        for kind in "fpn":
            # past-pointing where the kind reads v as spacelike (kind f on
            # case1 and case2)
            u = v if kind_length_sq(w, kind, p0, v) > 0 else -v
            try:
                p1 = advance_seed(w, kind, p0, u, mu)
            except SolverError as exc:  # no chain to compare
                assert str(exc) == "seed scaling ends against the direction"
                continue
            chain = _chain_or_error(w, kind, p0, p1, mu, 4)
            with monkeypatch.context() as patch:
                patch.setattr(tubes, "_isolated", lambda *args: False)  # probe every step
                ref = _chain_or_error(w, kind, p0, p1, mu, 4)
            _assert_same_chain(chain, ref)


@pytest.mark.parametrize("scale", [0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cubic_flags_match_the_always_probe_reference(monkeypatch, scale, seed):
    cub = world("cubic_a", a3=random_a3(scale=scale, seed=seed).ravel().tolist())
    _assert_flags_match_the_always_probe_reference(monkeypatch, cub)


def test_spacelike_chain_names_its_first_spacelike_segment(case2):
    # at mu 0.3 the case2 chains hold their kind lengths but turn spacelike:
    # the symmetrized squared lengths read 0.0012, -0.0605, ... for kind f,
    # so the parallelism residuals, which read them, are undefined
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    for kind, u in (("f", -v), ("p", v)):
        p1 = advance_seed(case2, kind, np.zeros(4), u, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError) as info:
                build_broken_tube(case2, kind, np.zeros(4), p1, 0.3, 4)
        assert type(info.value) is GeometryError
        message = str(info.value)
        assert message.startswith("chain segment 1 (vertex 1 to 2) is not timelike"), message
        value = float(re.search(r"symmetrized squared length (\S+);", message).group(1))
        assert value == pytest.approx(-0.0605, abs=1e-4)


def _recording(solve, records):
    """solve, appending the NewtonRecord of each call to records."""
    def newton(*args):
        z, record = solve(*args)
        records.append(record)
        return z, record
    return newton


def test_chain_step_keeps_its_jacobian_for_the_last_step(cubic, monkeypatch):
    # a kind-f step on cubic_a contracts quadratically, 7e-4 -> 2e-6 ->
    # 3e-11, which predicts the tolerance (1e-12) from one more step: that
    # step reuses the second stencil Jacobian (tgeom.newton)
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    p1 = advance_seed(cubic, "f", np.zeros(4), v, 0.2)
    records = []
    monkeypatch.setattr(tubes, "newton", _recording(tubes.newton, records))
    chain = build_broken_tube(cubic, "f", np.zeros(4), p1, 0.2, 3)
    assert np.max(chain.length_residuals) < 1e-14
    assert [(r.iterations, r.jacobians) for r in records] == [(3, 2)] * 3


# chain vertices (relative to mu) and length residuals with the chord step
# against a reference that takes a stencil Jacobian at every step, as
# (budget, measured)
CHORD_VERTEX_BUDGET = (1e-11, 5.4e-12)
CHORD_LENGTH_BUDGET = (1e-15, 4.7e-16)


# the directed kinds stall on the b-worlds at this seed (ROADMAP, chain stalls)
_CLOSING_PASS_CHAINS = [(name, kind) for name in ("euclidean", "constant_a", "case1", "case2",
                                                   "cubic_a")
                        for kind in ("nfp" if name in ("euclidean", "cubic_a") else "n")]


@pytest.mark.parametrize("name,kind", _CLOSING_PASS_CHAINS)
def test_closing_pass_reads_each_ordered_pair_once(all_worlds, name, kind):
    # the chain's residuals equal kind_length_sq's lengths and
    # chain_parallel_residual's defects bit for bit, from four world calls
    # over the s + 1 neighbour pairs and s next-neighbour pairs, each way
    w = all_worlds[name]
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    mu, steps = 0.1, 4
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return w(a, b)

    p1 = advance_seed(w, kind, np.zeros(4), v, mu)
    chain = build_broken_tube(WorldFunction(counted, 4, spec=w.spec, label=w.kind), kind,
                              np.zeros(4), p1, mu, steps)
    assert sizes[-4:] == [steps + 1, steps + 1, steps, steps]
    verts = chain.vertices
    lens, sym_lens = (np.abs(np.sqrt(kind_length_sq(w, k, verts[:-1], verts[1:])) - mu) / mu
                      for k in (kind, "n"))
    assert np.array_equal(chain.length_residuals, lens)
    assert np.array_equal(chain.sym_length_residuals, sym_lens)
    assert np.array_equal(chain.parallel_residuals,
                          tgeom.chain_parallel_residual(w, kind, verts[:-2], verts[1:-1],
                                                        verts[2:]))


def test_chord_step_matches_the_always_fresh_reference(monkeypatch):
    # the reference's refresh takes a stencil Jacobian wherever Newton keeps
    # one; a chain that stalls stalls the same way on both sides
    solve, records = tubes.newton, []
    newton = _recording(solve, records)

    def always_fresh(residual, jacobian, z0, tol, refresh=None):
        return solve(residual, jacobian, z0, tol, lambda J, z: jacobian(z))

    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    p0 = np.zeros(4)
    for scale, seed in itertools.product((0.3, 1.0), (0, 1, 2)):
        w = world("cubic_a", a3=random_a3(scale=scale, seed=seed).ravel().tolist())
        for mu, kind in itertools.product((0.03, 0.1, 0.3), "fp"):
            p1 = advance_seed(w, kind, p0, v, mu)
            with monkeypatch.context() as patch:
                patch.setattr(tubes, "newton", newton)
                chain = _chain_or_error(w, kind, p0, p1, mu, 4)
            with monkeypatch.context() as patch:
                patch.setattr(tubes, "newton", always_fresh)
                ref = _chain_or_error(w, kind, p0, p1, mu, 4)
            if isinstance(ref, str):
                assert chain == ref
                continue
            assert chain.multiplicity_flags == ref.multiplicity_flags
            assert (np.max(np.abs(chain.vertices - ref.vertices))
                    <= CHORD_VERTEX_BUDGET[0] * mu), (scale, seed, mu, kind)
            assert (np.max(np.abs(chain.length_residuals - ref.length_residuals))
                    <= CHORD_LENGTH_BUDGET[0]), (scale, seed, mu, kind)
    assert sum(r.iterations - r.jacobians for r in records) > 0  # chord steps were taken


@pytest.mark.parametrize("family", ["case1", "case2", "constant_a", "euclidean"])
def test_family_flags_match_the_always_probe_reference(monkeypatch, all_worlds, family):
    _assert_flags_match_the_always_probe_reference(monkeypatch, all_worlds[family])


def test_neutral_chain_world_point_budget_on_minkowski(minkowski):
    # the straight guess solves each step (no Newton iteration), so the
    # chord-step test takes the Jacobian at the probe's start and is most
    # of a step's cost: a kind-n tensor differences the symmetrized world
    # both ways, so the start multiplier's gradients take 64 points and the
    # step's residual its 2-point length, and the test 150 (the Jacobian
    # with its constraint gradient, 116, and the residual's objective
    # gradient and length, 34); the seed check takes 2 points, the lengths
    # and parallelism of the chain 18.  Probing every step would take 174
    # calls and 2,348 points.
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return minkowski(a, b)

    chain = build_broken_tube(world_from_callable(counted, 4), "n", np.zeros(4), 0.1 * v,
                              0.1, 4)
    assert np.max(chain.length_residuals) < 1e-10
    assert chain.multiplicity_flags == [False] * 4
    assert (len(sizes), sum(sizes)) == (70, 884)


def test_chain_seed_validation(minkowski):
    with pytest.raises(GeometryError, match="does not match"):
        build_broken_tube(minkowski, "f", np.zeros(4),
                          np.array([1.0, 0, 0, 0]), 0.5, steps=1)


@pytest.mark.parametrize("mu,coordinate", [(-0.1, 0.0), (0.0, 0.0), (np.nan, 0.0),
                                            (np.inf, 0.0), (-np.inf, 0.0),
                                            (0.1, np.nan), (0.1, np.inf)])
def test_chain_entry_points_reject_meaningless_input(minkowski, mu, coordinate):
    # rejected before any world call: no point behind p0 for a negative mu,
    # no p0 itself for mu = 0, no non-finite-coordinate error and no numpy
    # warning for a non-finite mu or point
    calls = []

    def counted(a, b):
        calls.append(1)
        return minkowski(a, b)

    w = world_from_callable(counted, 4)
    point = np.array([0.1, coordinate, 0.0, 0.0])
    match = "mu must be positive and finite" if not 0.0 < mu < np.inf else "must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((np.zeros(4), point), (point, np.zeros(4))):
            with pytest.raises(ValueError, match=match):
                advance_seed(w, "f", *args, mu)
            with pytest.raises(ValueError, match=match):
                build_broken_tube(w, "f", *args, mu, 2)
    assert calls == []


def test_chain_parallel_residual_scales_cubically():
    cub = world("cubic_a", a3=random_a3(scale=0.03, seed=3).ravel().tolist())
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    p0 = np.zeros(4)
    worst = {}
    for mu in (0.1, 0.05):
        p1 = advance_seed(cub, "f", p0, v, mu)
        chain = build_broken_tube(cub, "f", p0, p1, mu, steps=4)
        assert np.max(chain.length_residuals) < 1e-10  # solved constraint
        worst[mu] = np.max(np.abs(chain.parallel_residuals))
    ratio = worst[0.05] / worst[0.1]
    assert 0.08 < ratio < 0.2  # eighth-fold drop per halving: cubic order


def test_chain_tracks_gradient_line():
    cub = world("cubic_a", a3=random_a3(scale=0.04, seed=5).ravel().tolist())
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    p0 = np.zeros(4)
    span = 0.8
    ref = gradient_line_ode(cub, "f", p0, v, (0.0, span * 1.1), steps=32)
    devs = []
    for mu in (0.1, 0.05):
        p1 = advance_seed(cub, "f", p0, v, mu)
        chain = build_broken_tube(cub, "f", p0, p1, mu,
                                  steps=int(round(span / mu)) - 1)
        devs.append(path_deviation(chain.vertices, ref.points))
    assert 0.4 < devs[1] / devs[0] < 0.6


def test_kind_length_and_seed_helper(case1, cubic):
    p0 = np.zeros(4)
    v = np.array([1.0, 0, 0, 0])
    mu = 0.3
    # fine antisymmetry: every kind length is positive for timelike steps
    for kind in "nfp":
        p1 = advance_seed(cubic, kind, p0, v, mu)
        assert np.sqrt(kind_length_sq(cubic, kind, p0, p1)) == pytest.approx(mu, rel=1e-12)
    # rough antisymmetry: the linear term dominates small separations, so a
    # short future step has no real kind length
    with pytest.raises(GeometryError, match="not timelike"):
        advance_seed(case1, "f", p0, v, mu)
    p1 = advance_seed(case1, "n", p0, v, mu)
    assert np.sqrt(kind_length_sq(case1, "n", p0, p1)) == pytest.approx(mu, rel=1e-12)


def test_seed_against_its_direction_raises():
    # on a rough world the kind-f length t^2 + (linear term) t has a small
    # negative root, which Newton from mu / sqrt(L(1)) reaches at small mu:
    # the seed would point against the direction, and so it is refused
    w = world("constant_a", b=[0.3, 0.1, 0, 0])
    v = np.array([1.0, 0.25, -0.15, 0.1])
    v = v / np.sqrt(v @ MINK @ v)
    for mu, t in ((0.03, -0.00131), (0.1, -0.0143)):
        with pytest.raises(SolverError, match="^seed scaling ends against the direction$") as info:
            advance_seed(w, "f", np.zeros(4), v, mu)
        detail = info.value.detail
        assert set(detail) == {"t", "length_sq"}
        assert detail["t"] == pytest.approx(t, rel=1e-2)
        assert detail["length_sq"] == pytest.approx(mu * mu, rel=1e-12)
    # a larger mu reaches the positive root
    p1 = advance_seed(w, "f", np.zeros(4), v, 0.3)
    assert p1 / v == pytest.approx(np.full(4, 0.796289106860202), rel=1e-12)


def test_seed_scaling_budget(monkeypatch):
    # a seed scaling that Newton may not move from its first guess misses
    # 1e-8 mu^2 on a curved world and says what the solve did
    w = world("cubic_a", a3=random_a3(scale=0.3, seed=5).ravel().tolist())
    monkeypatch.setattr(sys.modules["tgeom.newton"], "MAX_STEPS", 0)
    with pytest.raises(SolverError, match="^seed scaling did not converge$") as info:
        advance_seed(w, "f", np.zeros(4), np.array([1.0, 0.25, -0.15, 0.1]), 0.1)
    detail = info.value.detail
    assert set(detail) == {"residual_norm", "iterations", "jacobians", "backtracks",
                           "stalled"}
    assert detail["iterations"] == 0 and detail["residual_norm"] > 1e-8 * 0.1**2


@pytest.mark.parametrize("beta,direction", [(1.0, [0, 1, 0, 0]), (-1.0, [1, 0, 0, 0])],
                         ids=["nan", "infinite"])
def test_seeds_on_a_world_pole_rejected(beta, direction):
    # at a pole of the screened family the kind length is NaN or infinite:
    # no timelike seed, and no numpy warning on the way
    pole = world("case2", b=[1, 0, 0, 0], alpha=0.2, beta=beta)
    direction = np.array(direction, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in "fpn":
            with pytest.raises(GeometryError, match="direction is not timelike"):
                advance_seed(pole, kind, np.zeros(4), direction, 0.1)
            with pytest.raises(GeometryError, match="seed segment is not timelike"):
                build_broken_tube(pole, kind, np.zeros(4), direction, 0.1, steps=1)
