import json

import numpy as np
import pytest

from tgeom import InvalidWorldSpecError, WorldSpec, fd, make_world
from conftest import world


def test_euclidean_spot_values(euclid2, euclid3):
    assert euclid2((0, 0), (1, 0)) == 0.5
    assert euclid3((1, 1, 1), (0, 0, 0)) == 1.5


def test_constant_a_forward_backward(const_a2):
    assert const_a2((0, 0), (1, 0)) == pytest.approx(0.2, abs=1e-15)
    assert const_a2((1, 0), (0, 0)) == pytest.approx(0.8, abs=1e-15)


def test_constant_a_split(const_a2):
    sym, asym = const_a2.sym((1, 0), (0, 0)), const_a2.asym((1, 0), (0, 0))
    assert sym == pytest.approx(0.5, abs=1e-15)
    assert asym == pytest.approx(0.3, abs=1e-15)
    assert sym + asym == const_a2((1, 0), (0, 0))


def test_case1_spot_value(case1):
    # unit timelike separation: xi^2 = 1, value 1*(1 + 0.2) + 0.5
    assert case1((1, 0, 0, 0), (0, 0, 0, 0)) == pytest.approx(1.7, abs=1e-15)


def test_diagonal_vanishes(all_worlds):
    rng = np.random.default_rng(1)
    for w in all_worlds.values():
        pts = rng.normal(size=(1000, w.dim))
        vals = w(pts, pts)
        assert np.max(np.abs(vals)) == 0.0


def test_split_is_exact_decomposition(all_worlds):
    rng = np.random.default_rng(2)
    for w in all_worlds.values():
        for _ in range(50):
            x, xp = rng.normal(size=(2, w.dim))
            sym, asym = w.sym(x, xp), w.asym(x, xp)
            fwd = w(x, xp)
            # recombination exact to a few roundings
            assert abs((sym + asym) - fwd) <= 4 * np.finfo(float).eps * max(1.0, abs(fwd))
            sym_r, asym_r = w.sym(xp, x), w.asym(xp, x)
            scale = max(1.0, abs(sym))
            assert abs(sym_r - sym) <= 1e-13 * scale
            assert abs(asym_r + asym) <= 1e-13 * scale


def test_alpha_zero_reduces_to_constant_anisotropy(const_a4, minkowski):
    # switching the intensity off leaves the constant covector term, i.e.
    # exactly the constant-anisotropy world; its tube shapes (not its raw
    # values) are the flat symmetric ones
    b = [0.3, 0.1, 0.0, 0.0]
    rng = np.random.default_rng(3)
    for kind, extra in (("case1", {}), ("case2", {"beta": 1.0})):
        w0 = world(kind, b=b, alpha=0.0, **extra)
        for _ in range(100):
            x, xp = rng.normal(size=(2, 4))
            want = const_a4(x, xp)
            assert w0(x, xp) == pytest.approx(want, rel=1e-14, abs=1e-14)
    # with a vanishing covector the reduction to the flat world is exact
    for kind, extra in (("case1", {}), ("case2", {"beta": 1.0})):
        w0 = world(kind, b=[0, 0, 0, 0], alpha=0.0, **extra)
        for _ in range(50):
            x, xp = rng.normal(size=(2, 4))
            assert w0(x, xp) == pytest.approx(minkowski(x, xp), rel=1e-15, abs=1e-15)


def test_broadcast_evaluation(case1):
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(7, 4))
    xp = rng.normal(size=4)
    batch = case1(xs, np.broadcast_to(xp, xs.shape))
    single = np.array([case1(x, xp) for x in xs])
    assert np.allclose(batch, single, rtol=0, atol=0)


def test_json_round_trip(case2):
    doc = case2.spec.to_dict()
    again = WorldSpec.from_dict(json.loads(json.dumps(doc)))
    w2 = make_world(again)
    rng = np.random.default_rng(5)
    x, xp = rng.normal(size=(2, 4))
    assert w2(x, xp) == case2(x, xp)


def test_json_round_trip_keeps_off_diagonal_metric():
    # a metric within allclose of a signature diagonal is still a full matrix
    spec = WorldSpec.from_dict({"kind": "euclidean", "dim": 2,
                                "metric": [[1.0, 1e-9], [1e-9, -1.0]]})
    doc = spec.to_dict()
    assert doc["metric"] == [[1.0, 1e-9], [1e-9, -1.0]]
    again = make_world(WorldSpec.from_json(json.dumps(doc)))
    value = again((1, 1), (0, 0))
    assert value == make_world(spec)((1, 1), (0, 0))
    assert value == pytest.approx(1e-9, rel=1e-6)  # the diagonal alone gives 0.0
    # a signature diagonal keeps its short form
    diag = WorldSpec.from_dict({"kind": "euclidean", "dim": 2, "metric": [1, -1]})
    assert diag.to_dict()["metric"] == [1.0, -1.0]


def test_full_matrix_metric():
    g = [[2.0, 0.5], [0.5, 1.0]]
    w = world("euclidean", dim=2, metric=g)
    xi = np.array([1.0, 2.0])
    expected = 0.5 * xi @ np.array(g) @ xi
    assert w(xi, np.zeros(2)) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("doc,message", [
    ({"kind": "nope", "dim": 2, "metric": [1, 1]}, "unknown world kind"),
    ({"kind": "euclidean", "dim": 2, "metric": [1, 1, 1]}, "length dim"),
    ({"kind": "euclidean", "dim": 2, "metric": [2, 1]}, "must be \\+1/-1"),
    ({"kind": "case1", "dim": 2, "metric": [1, -1], "alpha": 0.1}, "requires 'b'"),
    ({"kind": "euclidean", "dim": 2, "metric": [1, 1], "alpha": 1.0},
     "does not take parameter"),
    ({"kind": "cubic_a", "dim": 2, "metric": [1, 1], "a3": [0.0] * 7},
     "length dim"),
    ({"kind": "euclidean", "dim": 2, "metric": [[1, 0], [0, 0]]}, "singular"),
])
def test_spec_validation_errors(doc, message):
    with pytest.raises(InvalidWorldSpecError, match=message):
        WorldSpec.from_dict(doc)


@pytest.mark.parametrize("field,value,message", [
    ("alpha", float("nan"), "alpha must be finite"),
    ("alpha", "x", "alpha must be numeric"),
    ("alpha", True, "alpha must be numeric"),
    ("alpha", [0.1, 0.2], "alpha must be a number"),
    ("b", np.array([1.0, np.inf]), "b must be finite"),
    ("metric", [[1.0, "a"], ["a", 1.0]], "metric must be numeric"),
    ("dim", True, "dim must be a positive integer"),
])
def test_validate_rejects_bad_values(field, value, message):
    params = {"kind": "case1", "dim": 2, "metric": np.eye(2),
              "b": np.array([1.0, 0.0]), "alpha": 0.1, field: value}
    with pytest.raises(InvalidWorldSpecError, match=message):
        WorldSpec(**params).validate()


def test_asymmetric_a3_rejected():
    a3 = np.zeros((2, 2, 2))
    a3[0, 0, 1] = 1.0  # not symmetric
    with pytest.raises(InvalidWorldSpecError, match="fully symmetric"):
        WorldSpec.from_dict(
            {"kind": "cubic_a", "dim": 2, "metric": [1, 1],
             "a3": a3.ravel().tolist()}
        )


def test_malformed_json():
    with pytest.raises(InvalidWorldSpecError, match="malformed"):
        WorldSpec.from_json("{not json")


def test_dimension_mismatch(euclid2):
    from tgeom import DimensionMismatchError
    with pytest.raises(DimensionMismatchError):
        euclid2((0, 0, 0), (1, 0, 0))
    with pytest.raises(DimensionMismatchError):
        euclid2((np.nan, 0.0), (1, 0))


def test_stencil_pole_raises(case2):
    # finite differencing across the screening pole must fail loudly
    x = np.zeros(4)
    xp = np.array([0.0, 1.0, 0.0, 0.0])  # separation exactly on the pole
    with pytest.raises(FloatingPointError):
        with np.errstate(all="ignore"):
            fd.part_tensors(case2, x, xp, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])


def test_evaluation_is_pointwise(all_worlds):
    # the stencil plans rely on it: a point's value does not depend on the
    # batch it comes in (cubic_a sums by loop from 512 points, by einsum below)
    rng = np.random.default_rng(2)
    p = rng.normal(size=(1500, 4)) * rng.choice([1e-4, 1.0, 30.0], size=(1500, 1))
    q = rng.normal(size=(1500, 4))
    for name, w in all_worlds.items():
        batch = w(p, q)
        assert np.array_equal(batch[:300], w(p[:300], q[:300])), name
        assert np.array_equal(batch[::7], [w(a, b) for a, b in zip(p[::7], q[::7])]), name


@pytest.mark.parametrize("name", ["euclid2", "euclid3", "minkowski", "const_a2", "const_a4",
                                  "case1", "case2", "cubic", "warped_chart"])
def test_pair_value_is_batch_invariant(request, name):
    # world_from_callable's contract, which the stencil plans' point order
    # relies on: a pair gives the same bits alone and inside a flat, a
    # reshaped and a broadcast batch
    w = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    p, q = 0.3 * rng.normal(size=(2, 64, w.dim))
    alone = np.array([w(a, b) for a, b in zip(p, q)])
    assert np.array_equal(w(p, q), alone)
    grid = w(p.reshape(4, 16, w.dim), q.reshape(4, 16, w.dim))
    assert np.array_equal(grid.ravel(), alone)
    assert np.array_equal(w(p[:, None], q[None]).diagonal(), alone)  # all 64 x 64 pairs


def test_cubic_term_matches_einsum(cubic):
    a3 = np.asarray(cubic.spec.a3)
    rng = np.random.default_rng(3)
    for n in (1, 511, 512, 4360):
        p, q = rng.normal(size=(2, n, 4))
        xi = p - q
        want = (0.5 * np.einsum("...i,ij,...j", xi, np.diag([1.0, -1, -1, -1]), xi)
                + np.einsum("ikl,...i,...k,...l", a3, xi, xi, xi) / 6.0)
        assert np.array_equal(cubic(p, q), want), n
