"""The kind table: one tuple, one check, one reader of k(a, b) per kind."""

import numpy as np
import pytest

import tgeom
from tgeom import KINDS, Multivector, TubeSpec, fd, lines, products, tubes
from tgeom.worlds import check_kind, kind_pair

ORIGIN = np.zeros(4)
Y = np.array([1.0, 0.0, 0.0, 0.0])
A = np.array([0.1, 0.02, -0.03, 0.01])
B = np.array([0.6, 0.05, 0.04, -0.02])


def test_one_kinds_tuple():
    assert KINDS == ("f", "p", "n")
    assert tgeom.KINDS is KINDS
    for kind in KINDS:
        assert check_kind(kind) == kind


def test_kind_pair_picks_the_products():
    # the products (p.q), (q.p) a first-order residual of each kind multiplies
    assert kind_pair("n", "pq", "qp") == ("pq", "qp")
    assert kind_pair("f", "pq", "qp") == ("pq", "pq")
    assert kind_pair("p", "pq", "qp") == ("qp", "qp")


def test_of_kind_reads_the_world_function(all_worlds):
    for w in all_worlds.values():
        assert w.of_kind("f", A, B) == w(A, B)
        assert w.of_kind("p", A, B) == w(B, A)
        assert w.of_kind("n", A, B) == w.sym(A, B)


@pytest.mark.parametrize("na,nb", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 1)])
def test_kind_tensor_is_the_parts_tensor(all_worlds, na, nb):
    # bit-identical to the stencil each kind differentiated before the table:
    # the past kind is w's own tensor at (b, a) with its axis groups swapped
    for w in all_worlds.values():
        fwd = fd.partial_tensor(w, A, B, na, nb)
        rev = fd.partial_tensor(w, B, A, nb, na)
        sym = fd.part_tensors(w, A, B, [(na, nb)])["sym"][(na, nb)]
        assert np.array_equal(fd.kind_tensor(w, "f", A, B, na, nb), fwd)
        assert np.array_equal(fd.kind_tensor(w, "p", A, B, na, nb),
                              np.moveaxis(rev, range(nb), range(na, na + nb)))
        assert np.array_equal(fd.kind_tensor(w, "n", A, B, na, nb), sym)


def _taking_a_kind(case1, cubic):
    skel = Multivector(np.array([ORIGIN, Y]))
    q = Multivector(np.array([ORIGIN, 1.2 * Y]))
    p1, p2 = 0.3 * Y, 0.7 * Y
    return {
        "check_kind": lambda k: check_kind(k),
        "WorldFunction.of_kind": lambda k: cubic.of_kind(k, A, B),
        "fd.kind_tensor": lambda k: fd.kind_tensor(cubic, k, A, B, 0, 1),
        "TubeSpec": lambda k: TubeSpec(skel, k),
        "first_order_residual": lambda k: tubes.first_order_residual(cubic, k, ORIGIN, p1, p2),
        "first_order_factors": lambda k: tubes.first_order_factors(cubic, k, ORIGIN, p1, p2),
        "segment_residual": lambda k: tubes.segment_residual(cubic, k, ORIGIN, p1, p2),
        "sample_axisymmetric_tube": lambda k: tubes.sample_axisymmetric_tube(case1, Y, k, [0.5]),
        "kind_length_sq": lambda k: tubes.kind_length_sq(cubic, k, ORIGIN, p1),
        "advance_seed": lambda k: tubes.advance_seed(cubic, k, ORIGIN, Y, 0.3),
        "chain_parallel_residual": lambda k: tubes.chain_parallel_residual(cubic, k, ORIGIN,
                                                                           p1, p2),
        "build_broken_tube": lambda k: tubes.build_broken_tube(cubic, k, ORIGIN, p1, 0.3, 1),
        "gradient_line_implicit": lambda k: lines.gradient_line_implicit(cubic, k, ORIGIN, B,
                                                                         [0.5, 1.0]),
        "initial_velocity": lambda k: lines.initial_velocity(cubic, k, ORIGIN, B),
        "gradient_line_ode": lambda k: lines.gradient_line_ode(cubic, k, ORIGIN, Y, (0.0, 1.0)),
        "reparam_invariance_check": lambda k: lines.reparam_invariance_check(
            cubic, (lambda s: 2.0 * s, lambda s: np.full_like(s, 2.0)), k, ORIGIN, B, [0.5, 1.0]),
        "collinearity_residual": lambda k: products.collinearity_residual(cubic, k, skel, q),
        "is_collinear": lambda k: products.is_collinear(cubic, k, skel, q),
        "parallelism_residual": lambda k: products.parallelism_residual(cubic, k, "parallel",
                                                                        skel, q),
        "is_parallel": lambda k: products.is_parallel(cubic, k, "parallel", skel, q),
    }


_NAMES = list(_taking_a_kind(None, None))


@pytest.mark.parametrize("name", _NAMES)
def test_unknown_kind_rejected(case1, cubic, name):
    call = _taking_a_kind(case1, cubic)[name]
    with pytest.raises(ValueError, match=r"^unknown kind 'x': expected 'f', 'p' or 'n'$"):
        call("x")


def test_parallelism_has_no_neutral_kind(cubic):
    skel = Multivector(np.array([ORIGIN, Y]))
    with pytest.raises(ValueError, match="no neutral kind"):
        products.parallelism_residual(cubic, "n", "parallel", skel, skel)

