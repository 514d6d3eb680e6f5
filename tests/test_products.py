import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgeom import (
    ComplexLengthError,
    DimensionMismatchError,
    Multivector,
    OrderMismatchError,
    collinearity_residual,
    eta_triangle,
    gram,
    is_collinear,
    is_parallel,
    multivector_product,
    parallelism_residual,
    product_matrix,
    vector_product,
    vector_product_parts,
    world_from_callable,
)
from conftest import world


def mv(*points):
    return Multivector(np.asarray(points, dtype=float))


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# vector products
# ---------------------------------------------------------------------------

def test_vector_product_unit(euclid2):
    assert vector_product(euclid2, (0, 0), (1, 0), (0, 0), (1, 0)) == 1.0
    assert vector_product(euclid2, (1, 0), (0, 0), (0, 0), (1, 0)) == -1.0


def test_constant_antisymmetry_cancels(const_a2, euclid2):
    rng = np.random.default_rng(0)
    for _ in range(200):
        pts = rng.normal(size=(4, 2))
        va = vector_product(const_a2, *pts)
        ve = vector_product(euclid2, *pts)
        assert rel_close(va, ve, 1e-13)


def test_vector_product_parts_sum(case1):
    rng = np.random.default_rng(1)
    for _ in range(100):
        pts = rng.normal(size=(4, 4))
        sym, asym = vector_product_parts(case1, *pts)
        assert rel_close(sym + asym, vector_product(case1, *pts), 1e-12)


def test_vector_product_parts_world_calls(case1):
    # one product matrix per argument order, P.Q and Q.P: 2 calls of 4 points
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return case1(a, b)

    pts = np.random.default_rng(1).normal(size=(4, 4))
    sym, asym = vector_product_parts(world_from_callable(counted, 4), *pts)
    assert sizes == [4, 4]
    assert (sym, asym) == vector_product_parts(case1, *pts)
    sizes.clear()
    assert vector_product(world_from_callable(counted, 4), *pts) == vector_product(case1, *pts)
    assert sizes == [4]


def test_parts_antisym_consistency(case1):
    # antisymmetric part equals half the difference of the two product orders
    p0, p1 = np.zeros(4), np.array([1.0, 0, 0, 0])
    q0, q1 = np.array([0.0, 1, 0, 0]), np.array([1.0, 1, 0, 0])
    _, asym = vector_product_parts(case1, p0, p1, q0, q1)
    fwd = vector_product(case1, p0, p1, q0, q1)
    rev = vector_product(case1, q0, q1, p0, p1)
    assert rel_close(asym, 0.5 * (fwd - rev), 1e-12)


def test_null_vector(case1):
    rng = np.random.default_rng(2)
    q0, q1 = rng.normal(size=(2, 4))
    p = rng.normal(size=4)
    sym, asym = vector_product_parts(case1, p, p, q0, q1)
    assert abs(sym) < 1e-14 and abs(asym) < 1e-14


def test_antisymmetry_under_swaps(all_worlds):
    rng = np.random.default_rng(3)
    for w in all_worlds.values():
        for _ in range(100):
            p0, p1, q0, q1 = rng.normal(size=(4, w.dim))
            base = vector_product(w, p0, p1, q0, q1)
            assert rel_close(vector_product(w, p1, p0, q0, q1), -base)
            assert rel_close(vector_product(w, p0, p1, q1, q0), -base)


# ---------------------------------------------------------------------------
# multivector products and Gram determinants
# ---------------------------------------------------------------------------

def test_identity_gram(euclid2):
    p = mv((0, 0), (1, 0), (0, 1))
    assert multivector_product(euclid2, p, p) == 1.0
    assert gram(euclid2, p) == 1.0


def test_repeated_point_is_null(case1):
    rng = np.random.default_rng(4)
    p = mv(*(list(rng.normal(size=(2, 4))) + [np.zeros(4)]))
    pts = p.points.copy()
    pts[2] = pts[0]  # repeat a point
    null = Multivector(pts)
    for _ in range(20):
        q = mv(*rng.normal(size=(3, 4)))
        assert abs(multivector_product(case1, null, q)) < 1e-12
        assert abs(multivector_product(case1, q, null)) < 1e-12


def test_two_by_two_against_cofactor_oracle(case1):
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = mv(*rng.normal(size=(3, 4)))
        q = mv(*rng.normal(size=(3, 4)))
        m = product_matrix(case1, p, q)
        oracle = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert rel_close(multivector_product(case1, p, q), oracle, 1e-13)


def test_gram_against_volume_oracle(euclid3):
    # squared parallelepiped volume from the determinant of edge vectors
    rng = np.random.default_rng(6)
    for _ in range(100):
        pts = rng.normal(size=(4, 3))
        edges = pts[1:] - pts[0]
        vol2 = float(np.linalg.det(edges)) ** 2
        assert rel_close(gram(euclid3, mv(*pts)), vol2, 1e-10)


def test_triangle_area(euclid2):
    f2 = gram(euclid2, mv((0, 0), (1, 0), (0, 1)))
    assert np.sqrt(f2) / 2.0 == pytest.approx(0.5)
    assert gram(euclid2, mv((0, 0), (1, 0), (2, 0))) == pytest.approx(0.0, abs=1e-15)


def test_gram_permutation_invariance(all_worlds):
    rng = np.random.default_rng(7)
    for w in all_worlds.values():
        for n in (1, 2, 3):
            pts = rng.normal(size=(n + 1, w.dim))
            base = gram(w, Multivector(pts))
            for perm in itertools.permutations(range(n + 1)):
                val = gram(w, Multivector(pts[list(perm)]))
                assert rel_close(val, base, 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_is_self_product(all_worlds, n):
    # the squared length is the multivector product of a tuple with itself,
    # bit for bit
    rng = np.random.default_rng(n)
    for name, w in all_worlds.items():
        for _ in range(10):
            p = Multivector(rng.normal(size=(n + 1, w.dim)))
            assert gram(w, p).hex() == multivector_product(w, p, p).hex(), name


def test_sign_flip_under_transposition(all_worlds):
    rng = np.random.default_rng(8)
    for w in all_worlds.values():
        for _ in range(25):
            n = int(rng.integers(1, 4))
            p = Multivector(rng.normal(size=(n + 1, w.dim)))
            q = Multivector(rng.normal(size=(n + 1, w.dim)))
            base = multivector_product(w, p, q)
            i, k = sorted(rng.choice(n + 1, size=2, replace=False))
            assert rel_close(multivector_product(w, p.swapped(i, k), q), -base)
            assert rel_close(multivector_product(w, p, q.swapped(i, k)), -base)


def test_squared_length(euclid2, const_a2, minkowski):
    # the squared length of a vector is the Gram determinant of its two
    # points; timelike when it is nonnegative
    value = gram(euclid2, mv((0, 0), (3, 4)))
    assert value == 25.0 and value >= 0.0
    # one length per vector: only the symmetric part enters
    value = gram(const_a2, mv((0, 0), (1, 0)))
    assert value == pytest.approx(1.0, abs=1e-15) and value >= 0.0
    value = gram(minkowski, mv((0, 0, 0, 0), (0, 1, 0, 0)))
    assert value == -1.0 and not value >= 0.0


def test_order_mismatch_raises(euclid2):
    with pytest.raises(OrderMismatchError):
        multivector_product(euclid2, mv((0, 0), (1, 0)),
                            mv((0, 0), (1, 0), (0, 1)))


@pytest.mark.parametrize("call", [
    lambda w, a, b: vector_product(w, a, a, b, a),
    lambda w, a, b: vector_product_parts(w, a, a, b, a),
    lambda w, a, b: product_matrix(w, mv(b, b), mv(b, b)),
    lambda w, a, b: product_matrix(w, mv(a, a), mv(b, b)),
    lambda w, a, b: gram(w, mv(b, b)),
    lambda w, a, b: eta_triangle(w, a, a, b),
    lambda w, a, b: Multivector([a, b]),
], ids=["vector_product", "vector_product_parts", "product_matrix",
        "product_matrix_operands", "gram", "eta_triangle", "multivector"])
def test_wrong_dimension_point_raises(euclid2, call):
    # the world call rejects a point of the wrong dimension; product_matrix
    # also rejects operands of different dimensions before any call, and
    # Multivector rejects points of different dimensions
    with pytest.raises(DimensionMismatchError):
        call(euclid2, (0.0, 1.0), (0.0, 1.0, 2.0))


# ---------------------------------------------------------------------------
# collinearity / parallelism
# ---------------------------------------------------------------------------

def test_collinear_scaled_vectors(euclid2):
    p = mv((0, 0), (1, 0))
    q = mv((2, 0), (5, 0))
    for kind in "nfp":
        assert abs(collinearity_residual(euclid2, kind, p, q)) < 1e-12
        assert is_collinear(euclid2, kind, p, q)


def test_symmetric_world_kinds_coincide(minkowski):
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = mv(*rng.normal(size=(2, 4)))
        q = mv(*rng.normal(size=(2, 4)))
        vals = [collinearity_residual(minkowski, k, p, q) for k in "nfp"]
        assert rel_close(vals[0], vals[1]) and rel_close(vals[1], vals[2])


def test_future_past_swap_identity(case1):
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = mv(*rng.normal(size=(2, 4)))
        q = mv(*rng.normal(size=(2, 4)))
        f_pq = collinearity_residual(case1, "f", p, q)
        p_qp = collinearity_residual(case1, "p", q, p)
        assert rel_close(f_pq, p_qp, 1e-12)


def _timelike_vector(rng, w):
    while True:
        pts = rng.normal(size=(2, 4)) * 0.3
        pts[1, 0] = pts[0, 0] + 1.0 + rng.random()
        p = mv(*pts)
        if gram(w, p) > 0.1:
            return p


def test_parallel_residuals_euclid(euclid2):
    p = mv((0, 0), (2, 0))
    q = mv((1, 0), (4, 0))
    assert abs(parallelism_residual(euclid2, "f", "parallel", p, q)) < 1e-12
    anti = parallelism_residual(euclid2, "f", "antiparallel", p, q)
    assert anti == pytest.approx(2.0 * 2.0 * 3.0, rel=1e-12)
    assert is_parallel(euclid2, "f", "parallel", p, q)
    assert not is_parallel(euclid2, "f", "antiparallel", p, q)


def test_reversal_maps_parallel_to_antiparallel(minkowski):
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = _timelike_vector(rng, minkowski)
        q = _timelike_vector(rng, minkowski)
        par = parallelism_residual(minkowski, "f", "parallel", p, q)
        rev = parallelism_residual(minkowski, "f", "antiparallel",
                                   p.swapped(0, 1), q)
        assert rel_close(par, -rev, 1e-11)


def test_fp_parallel_swap_identity(case1):
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = _timelike_vector(rng, case1)
        q = _timelike_vector(rng, case1)
        f_pq = parallelism_residual(case1, "f", "parallel", p, q)
        p_qp = parallelism_residual(case1, "p", "parallel", q, p)
        assert rel_close(f_pq, p_qp, 1e-11)


def test_complex_length_error(minkowski):
    spacelike = mv((0, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ComplexLengthError):
        parallelism_residual(minkowski, "f", "parallel", spacelike, spacelike)


def test_predicates_read_each_gram_once(case1):
    # one world call per Gram and per cross product: 4 for collinearity, 3
    # for parallelism; the verdict is the residual against a scale of its
    # own degree, the product of the two squared lengths for collinearity
    # and of the two lengths for parallelism
    calls = []

    def counted(a, b):
        calls.append(1)
        return case1(a, b)

    w = world_from_callable(counted, 4)
    rng = np.random.default_rng(13)
    for _ in range(20):
        p, q = _timelike_vector(rng, case1), _timelike_vector(rng, case1)
        scale = abs(gram(case1, p) * gram(case1, q))
        lengths = np.sqrt(gram(case1, p)) * np.sqrt(gram(case1, q))
        for kind in "nfp":
            calls.clear()
            got = is_collinear(w, kind, p, q)
            assert len(calls) == 4
            assert got == (abs(collinearity_residual(case1, kind, p, q)) <= 1e-9 * scale)
        for kind, sense in itertools.product("fp", ("parallel", "antiparallel")):
            calls.clear()
            got = is_parallel(w, kind, sense, p, q)
            assert len(calls) == 3
            assert got == (abs(parallelism_residual(case1, kind, sense, p, q)) <= 1e-9 * lengths)
    spacelike = mv((0, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ComplexLengthError):
        is_parallel(case1, "f", "parallel", spacelike, spacelike)


# ---------------------------------------------------------------------------
# hypothesis property tests
# ---------------------------------------------------------------------------

coords = st.floats(min_value=-5, max_value=5, allow_nan=False,
                   allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(coords, min_size=8, max_size=8))
def test_hypothesis_vector_product_antisymmetry(values):
    w = world("euclidean", dim=2, metric=[1, 1])
    p0, p1, q0, q1 = np.asarray(values).reshape(4, 2)
    base = vector_product(w, p0, p1, q0, q1)
    flipped = vector_product(w, p1, p0, q0, q1)
    assert abs(base + flipped) <= 1e-12 * max(1.0, abs(base))


@settings(max_examples=100, deadline=None)
@given(st.lists(coords, min_size=12, max_size=12))
def test_hypothesis_gram_permutation(values):
    w = world("constant_a", dim=3, metric=[1, 1, 1], b=[0.2, -0.1, 0.4])
    pts = np.asarray(values).reshape(4, 3)
    base = gram(w, Multivector(pts))
    rolled = gram(w, Multivector(np.roll(pts, 1, axis=0)))
    # scale by the determinant's natural magnitude (cancellation-aware)
    entry_scale = max(1.0, float(np.max(np.abs(product_matrix(w, Multivector(pts),
                                                              Multivector(pts))))))
    assert abs(base - rolled) <= 1e-12 * entry_scale**3
