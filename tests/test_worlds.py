import json

import numpy as np
import pytest

from tgeom import InvalidWorldSpecError, SingularMetricError, WorldSpec, fd, make_world
from tgeom.worlds import _inv
from conftest import random_a3, world


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
        WorldSpec(**params)


def test_asymmetric_a3_rejected():
    a3 = np.zeros((2, 2, 2))
    a3[0, 0, 1] = 1.0  # not symmetric
    with pytest.raises(InvalidWorldSpecError, match="fully symmetric"):
        WorldSpec.from_dict(
            {"kind": "cubic_a", "dim": 2, "metric": [1, 1],
             "a3": a3.ravel().tolist()}
        )


def _cubic_doc(metric, a3):
    return {"kind": "cubic_a", "dim": len(metric), "metric": metric,
            "a3": np.asarray(a3).ravel().tolist()}


def test_symmetry_rule_reads_the_tensor_unit():
    # scaling the metric and a3 by 4**10 scales every world value by exactly
    # 4**10; a3's symmetrization round-off scales with it
    a3 = random_a3(scale=0.3, seed=1)
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    scale = 4.0**10
    w = make_world(WorldSpec.from_dict(_cubic_doc(metric.tolist(), a3)))
    big = make_world(WorldSpec.from_dict(_cubic_doc((scale * metric).tolist(), scale * a3)))
    x, xp = np.array([0.3, 0.1, -0.2, 0.05]), np.array([-0.1, 0.2, 0.1, 0.0])
    assert big(x, xp) == scale * w(x, xp)


def test_lone_small_a3_entry_rejected():
    a3 = np.zeros((2, 2, 2))
    a3[0, 0, 1] = 1e-13  # without its symmetric partners
    with pytest.raises(InvalidWorldSpecError, match="fully symmetric"):
        WorldSpec.from_dict(_cubic_doc([1, 1], a3))


def test_small_asymmetric_metric_rejected():
    unit = 2.0**-1000
    with pytest.raises(InvalidWorldSpecError, match="metric must be symmetric"):
        WorldSpec(kind="euclidean", dim=2, metric=[[unit, unit / 2], [0.0, -unit]])


def test_zero_a3_is_symmetric():
    w = make_world(WorldSpec.from_dict(_cubic_doc([1, -1], np.zeros((2, 2, 2)))))
    assert w([1.0, 0.0], [0.0, 0.0]) == 0.5


# the one conditioning rule of every metric: finite, and a 2-norm condition
# number at most 1e12, whatever the scale of the entries
@pytest.mark.parametrize("metric", [
    [[1e308, 0.0], [0.0, -1e308]],
    (1e200 * np.diag([1.0, -1.0, -1.0, -1.0])).tolist(),
    [[1e-7, 0.0], [0.0, -1e-7]],  # determinant 1e-14, condition number 1
])
def test_metric_rule_ignores_scale(metric):
    spec = WorldSpec.from_dict({"kind": "euclidean", "dim": len(metric), "metric": metric})
    assert np.array_equal(spec.metric, metric)
    make_world(spec)


@pytest.mark.parametrize("diagonal", [
    [1e200, 1e-200],  # determinant 1, condition number 1e400
    [1e-310, -1e-310],  # condition number 1, but the inverse overflows
])
def test_ill_conditioned_metric_rejected_at_construction(diagonal):
    with pytest.raises(InvalidWorldSpecError, match="metric is numerically singular"):
        WorldSpec(kind="euclidean", dim=2, metric=np.diag(diagonal))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_conditioning_rule_rejects_non_finite_entries(entry):
    # every caller checks its values first, so only a direct call reaches this
    m = np.eye(3)
    m[1, 2] = entry
    with pytest.raises(SingularMetricError, match="^basis has non-finite entries$"):
        _inv(m, "basis")
    with pytest.raises(InvalidWorldSpecError, match="^metric has non-finite entries$"):
        _inv(m, "metric", InvalidWorldSpecError)


def test_overflowing_asymmetry_rejected_without_warning():
    with pytest.raises(InvalidWorldSpecError, match="metric must be symmetric"):
        WorldSpec(kind="euclidean", dim=2, metric=[[0.0, 1e308], [-1e308, 0.0]])


def test_invalid_spec_raises_at_construction():
    with pytest.raises(InvalidWorldSpecError, match="requires 'alpha'"):
        WorldSpec(kind="case1", dim=2, metric=np.eye(2), b=[1.0, 0.0])
    with pytest.raises(InvalidWorldSpecError, match="covector of length dim"):
        WorldSpec(kind="constant_a", dim=2, metric=np.eye(2), b=[1.0, 0.0, 0.0])


def test_spec_fields_are_read_only_floats():
    metric = np.diag([1, -1])
    spec = WorldSpec(kind="case2", dim=2, metric=metric, b=[1, 0], alpha=1, beta=2)
    assert type(spec.alpha) is float and type(spec.beta) is float
    cubic = WorldSpec(kind="cubic_a", dim=2, metric=metric, a3=np.zeros((2, 2, 2), int))
    for arr in (spec.metric, spec.b, cubic.a3):
        assert arr.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    metric[0, 0] = 5  # the spec holds its own copy
    assert spec.metric[0, 0] == 1.0


def test_spec_equality_is_identity():
    # specs hold arrays, so == and hash go by identity; to_dict() compares values
    doc = {"kind": "constant_a", "dim": 2, "metric": [1, -1], "b": [0.3, 0.0]}
    spec, twin = WorldSpec.from_dict(doc), WorldSpec.from_dict(doc)
    assert hash(spec) == hash(spec)
    assert spec in {spec} and twin not in {spec}
    assert spec == spec
    assert spec != twin
    assert spec.to_dict() == twin.to_dict()


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


def _reference_evaluator(spec):
    """The five per-family closures the evaluator was once written as: the
    reference the single closed form of make_world must match bit for bit."""
    g = np.array(spec.metric, dtype=float)

    def quad(x, xp):
        xi = x - xp
        return 0.5 * np.einsum("...i,ij,...j", xi, g, xi)

    def constant_a(x, xp):
        xi = x - xp
        return np.einsum("...i,i", xi, b) + quad(x, xp)

    def case1(x, xp):
        xi = x - xp
        xi2 = np.einsum("...i,ij,...j", xi, g, xi)
        return np.einsum("...i,i", xi, b) * (1.0 + alpha * xi2) + 0.5 * xi2

    def case2(x, xp):
        xi = x - xp
        xi2 = np.einsum("...i,ij,...j", xi, g, xi)
        f = 1.0 / (1.0 + beta * xi2)
        return np.einsum("...i,i", xi, b) * (1.0 + alpha * f) + 0.5 * xi2

    def cubic_sum(xi):
        if xi.size < 512 * xi.shape[-1]:
            return np.einsum("ikl,...i,...k,...l", a3, xi, xi, xi)
        cols = np.moveaxis(xi, -1, 0).copy()
        acc = np.zeros(xi.shape[:-1])
        term = np.empty(xi.shape[:-1])
        for i, k, l in np.ndindex(a3.shape):
            np.multiply(a3[i, k, l], cols[i], out=term)
            term *= cols[k]
            term *= cols[l]
            acc += term
        return acc

    def cubic_a(x, xp):
        xi = x - xp
        cubic = cubic_sum(xi) / 6.0
        return quad(x, xp) + cubic

    b = None if spec.b is None else np.array(spec.b, dtype=float)
    a3 = None if spec.a3 is None else np.array(spec.a3, dtype=float)
    alpha = None if spec.alpha is None else float(spec.alpha)
    beta = None if spec.beta is None else float(spec.beta)
    return {"euclidean": quad, "constant_a": constant_a, "case1": case1,
            "case2": case2, "cubic_a": cubic_a}[spec.kind]


@pytest.mark.parametrize("size", [1, 7, 600, 3000])
def test_closed_form_matches_per_family_reference(all_worlds, size):
    # bits and signs of zero equal to the per-family reference, on both sides
    # of cubic_a's 512-point switch and for a full-matrix metric, including
    # coincident pairs and zero separations of either sign
    full = world("case2", metric=[[1.0, 0.2, 0.0, 0.1], [0.2, -1.0, 0.0, 0.0],
                                  [0.0, 0.0, -1.0, 0.3], [0.1, 0.0, 0.3, -1.0]],
                 b=[1.0, 0.0, -0.5, 0.0], alpha=0.3, beta=0.7)
    rng = np.random.default_rng(size)
    x = rng.normal(size=(size, 4)) * rng.choice([1e-6, 1.0, 40.0], size=(size, 1))
    xp = rng.normal(size=(size, 4))
    xp[::3] = x[::3]                       # coincident pairs: xi = +0
    x[1::5], xp[1::5] = -0.0, 0.0          # xi = -0
    x[2::5], xp[2::5] = (0.0, 1e-200, 0.0, -1e-210), 0.0  # xi^2 underflows
    for name, w in [*all_worlds.items(), ("full_metric", full)]:
        got = w(x, xp)
        want = _reference_evaluator(w.spec)(x, xp)
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
        one = w(x[0], xp[0])
        assert one == want[0] and np.signbit(one) == np.signbit(want[0]), name
