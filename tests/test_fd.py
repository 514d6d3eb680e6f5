"""Stencil plans against naive per-entry evaluation.

A plan evaluates each unique stencil point once and reads every entry's
values back by index; the naive reference below evaluates each entry's own
stencil, and at xp = x also calls w(Q, P), as the engine did before plans.
Equality is exact: the plan must change which points are evaluated, never
the numbers.  The reference builds the seven-point rule's stencils itself.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tgeom import WorldFunction, fd, world_from_callable
from tgeom.calculus import _COEFFICIENT_ORDERS, _CURVATURE_ORDERS, _F_ORDERS

from conftest import world

X0 = np.array([0.2, -0.1, 0.3, 0.05])
XP0 = np.array([0.5, 0.2, -0.1, 0.1])
NEG_ZERO = np.array([0.2, -0.0, 0.3, -0.0])
ANCHORS = {"coincident": (X0, X0), "separated": (X0, XP0), "negative_zero": (NEG_ZERO, NEG_ZERO)}
# the seven-point rule reads the anchor pair itself: a separated one with
# signed zeros too
SEVEN_POINT_ANCHORS = {**ANCHORS, "negative_zero_separated": (NEG_ZERO, XP0)}
UP_TO_22 = [(nx, npr) for nx in range(3) for npr in range(3)]
ORDER_SETS = {
    "coefficients": _COEFFICIENT_ORDERS,
    "f": _F_ORDERS,
    "curvature": _CURVATURE_ORDERS,
    "up_to_22": UP_TO_22,
    **{f"single{key}": [key] for key in UP_TO_22},
}
PARTS = ("full", "sym", "asym")

# An order-2 tensor on the 2-point rule (a second_order request, or a plain
# one on a polynomial world) takes the seven-point rule for its off-diagonal
# entries, at any anchor, from the dimension at which it reads fewer points
# on it than on the 2-point product rule: (1, 1) 1 + 4d + 2d^2 against 4d^2,
# (2, 0) and (0, 2) 1 + 2d + d(d - 1) against 1 + 2d + 2d(d - 1).
SEVEN_POINT_FROM = {(1, 1): 3, (2, 0): 2, (0, 2): 2}
SEVEN_POINT_COUNTS = {(1, 1): (7, 17, 31, 49), (2, 0): (3, 7, 13, 21), (0, 2): (3, 7, 13, 21)}
PRODUCT_COUNTS = {(1, 1): (4, 16, 36, 64), (2, 0): (3, 9, 19, 33), (0, 2): (3, 9, 19, 33)}


def seven_point_values(w, x, xp, step, u, v):
    """w and w swapped at the seven-point stencil of the axes u and v of the
    stacked pair (x, xp), in the order (0, +-u, +-v, +-(u + v)), with the
    rule's weights (f(u+v) + f(-u-v) - f(u) - f(-u) - f(v) - f(-v) + 2 f(0))
    / (2 h^2).  The zero offset is the anchor pair itself."""
    d = len(x)
    pairs = [(x, xp)]
    for sign_u, sign_v in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
        z = np.zeros(2 * d)
        z[u] += sign_u
        z[v] += sign_v
        pairs.append((x + step * z[:d], xp + step * z[d:]))
    p, q = (np.array(side) for side in zip(*pairs))
    return w(p, q), w(q, p), np.array([2.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0]) / 2.0


def naive_part_tensors(w, x, xp, orders, second_order=False):
    """part_tensors entry by entry: two world calls per entry stencil, each
    summed left to right, at w's own steps (fd.step_size) and on w's own
    rule: the 2-point rule on the first-derivative axes of every order in a
    second_order request, from order 2 on a polynomial world and from order
    3 elsewhere, and the seven-point rule where an order-2 tensor on the
    2-point rule takes it (SEVEN_POINT_FROM)."""
    polynomial = getattr(w, "polynomial_scale", None) is not None
    two_point_from = 1 if second_order else 2 if polynomial else 3
    d = x.shape[-1]
    out = {part: {} for part in PARTS}
    for nx, npr in orders:
        order = nx + npr
        if order == 0:
            fwd, rev = w(x, xp), w(xp, x)
            for part, value in zip(PARTS, (fwd, 0.5 * (fwd + rev), 0.5 * (fwd - rev))):
                out[part][(nx, npr)] = np.asarray(value, dtype=float)[()]
            continue
        step = fd.step_size(w, order, x, xp)
        tensors = np.zeros((3,) + (d,) * order)
        seven_point = two_point_from <= 2 and d >= SEVEN_POINT_FROM.get((nx, npr), d + 1)
        for offs_x, offs_xp, unit, targets in fd._tensor_entries(d, nx, npr, two_point_from):
            if seven_point and (nx == 1 or len(set(targets[0])) == 2):  # off the diagonal
                i, j = min(targets)
                fwd, rev, unit = seven_point_values(w, x, xp, step, i + d * (nx == 0),
                                                    j + d * (nx < 2))
            else:
                p, q = x + step * offs_x, xp + step * offs_xp
                fwd, rev = w(p, q), w(q, p)
            wts = unit / step**order
            for i, row in enumerate((fwd, 0.5 * (fwd + rev), 0.5 * (fwd - rev))):
                val = sum(row * wts)
                for idx in targets:
                    tensors[(i,) + idx] = val
        for i, part in enumerate(PARTS):
            out[part][(nx, npr)] = tensors[i]
    return out


# every step comes from the per-order rule, fd.step_size: "auto_step"
@pytest.mark.parametrize("anchor", ANCHORS, ids=[f"{name}-auto_step" for name in ANCHORS])
@pytest.mark.parametrize("orders", ORDER_SETS.values(), ids=ORDER_SETS.keys())
def test_plan_matches_naive_entries(all_worlds, orders, anchor):
    x, xp = ANCHORS[anchor]
    for name, w in all_worlds.items():
        got = fd.part_tensors(w, x, xp, orders)
        want = naive_part_tensors(w, x, xp, orders)
        plain = fd.partial_tensors(w, x, xp, orders)
        for part in PARTS:
            for key in orders:
                assert np.array_equal(got[part][key], want[part][key]), (name, part, key)
        for key in orders:
            assert np.array_equal(plain[key], want["full"][key]), (name, key)


# the Newton Jacobians: 2-point rule on every first-derivative axis, at the
# order-2 step, and the seven-point rule off the diagonal at every anchor:
# one (1, 1) tensor reads 49 points and one (0, 2) or (2, 0) tensor 21
@pytest.mark.parametrize("anchor", SEVEN_POINT_ANCHORS)
@pytest.mark.parametrize("key", [(1, 1), (0, 2), (2, 0)], ids=["11", "02", "20"])
def test_second_order_plan_matches_naive_entries(all_worlds, key, anchor):
    x, xp = SEVEN_POINT_ANCHORS[anchor]
    for offs_x, offs_xp, _, _ in fd._tensor_entries(4, *key, 1):
        assert np.max(np.abs(np.concatenate([offs_x, offs_xp]))) == 1  # no 4-point rule
    for name, w in all_worlds.items():
        assert _points(w, x, xp, [key], second_order=True) == SEVEN_POINT_COUNTS[key][-1], name
        got = fd.part_tensors(w, x, xp, [key], second_order=True)
        want = naive_part_tensors(w, x, xp, [key], second_order=True)
        plain = fd.partial_tensors(w, x, xp, [key], second_order=True)
        for part in PARTS:
            assert np.array_equal(got[part][key], want[part][key]), (name, part)
        assert np.array_equal(plain[key], want["full"][key]), name


@pytest.mark.parametrize("key", [(1, 1), (0, 2), (2, 0)], ids=["11", "02", "20"])
def test_second_order_plans_never_read_more_points(key):
    # the seven-point rule is taken only where it reads fewer points than
    # the product rule, and (1, 1) keeps the product rule at d = 1 and 2
    for d in (1, 2, 3, 4):
        got = len(fd._stencil_plan(d, (key,), False, 1).cls)
        assert got == min(SEVEN_POINT_COUNTS[key][d - 1], PRODUCT_COUNTS[key][d - 1]), d


def tensor_digest(worlds):
    """A sha256 of fd's part tensors on worlds: the f and curvature orders at
    a coincident anchor, the second_order (1, 1) and (0, 2) at a separated
    one."""
    digest = hashlib.sha256()
    for w in worlds:
        for (x, xp), orders, second_order in (
                (ANCHORS["coincident"], _F_ORDERS + _CURVATURE_ORDERS, False),
                (ANCHORS["separated"], [(1, 1), (0, 2)], True)):
            tensors = fd.part_tensors(w, x, xp, orders, second_order=second_order)
            for part in PARTS:
                for key in orders:
                    digest.update(tensors[part][key].tobytes())
    return digest.hexdigest()


# each stencil sums left to right in elementwise adds, so child interpreters
# on other OpenBLAS kernels (OPENBLAS_CORETYPE; one that numpy's OpenBLAS
# ignores changes nothing) read the same bits: Haswell fuses multiply-adds in
# its dot, Prescott does not
def test_stencil_tensors_do_not_depend_on_the_blas_kernel(all_worlds):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(fd.__file__)))
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    docs = json.dumps([w.spec.to_dict() for w in all_worlds.values()])
    code = ("import json, sys\nfrom tgeom import WorldSpec, make_world\nfrom test_fd import "
            "tensor_digest\nprint(tensor_digest([make_world(WorldSpec.from_dict(doc)) "
            "for doc in json.loads(sys.argv[1])]))")
    want = tensor_digest(all_worlds.values())
    for kernel in ("Haswell", "Prescott"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=kernel)
        proc = subprocess.run([sys.executable, "-c", code, docs], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == want, kernel


def _recording(w, dim):
    """w wrapped to keep every call's (P, Q) rows side by side."""
    calls = []

    def recorded(a, b):
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        calls.append(np.concatenate([a.reshape(-1, dim), b.reshape(-1, dim)], axis=1))
        return w(a, b)

    return world_from_callable(recorded, dim), calls


@pytest.mark.parametrize("orders", [_COEFFICIENT_ORDERS, _F_ORDERS, _CURVATURE_ORDERS, UP_TO_22])
@pytest.mark.parametrize("anchor", ["coincident", "separated"])
def test_world_never_sees_a_repeated_row(cubic, orders, anchor):
    xp = X0 if anchor == "coincident" else XP0
    for run in (lambda w: fd.part_tensors(w, X0, xp, orders),
                lambda w: fd.partial_tensors(w, X0, xp, orders)):
        w, calls = _recording(cubic, 4)
        run(w)
        for rows in calls:
            assert len(np.unique(rows, axis=0)) == len(rows)


def test_world_calls_per_request(cubic):
    # part_tensors: one call at coincidence, w(P, Q) and w(Q, P) elsewhere;
    # (0, 0) is the plan's zero-offset row, the anchor pair itself
    for xp, want in ((X0, 1), (XP0, 2)):
        w, calls = _recording(cubic, 4)
        fd.part_tensors(w, X0, xp, _COEFFICIENT_ORDERS)
        assert len(calls) == want
    w, calls = _recording(cubic, 4)
    fd.part_tensors(w, X0, X0, [(0, 0), (0, 1)])
    assert [len(rows) for rows in calls] == [33]
    # a second-order stencil already holds the anchor pair
    w, calls = _recording(cubic, 4)
    fd.part_tensors(w, X0, XP0, [(0, 0), (0, 1), (0, 2)])
    alone = fd._stencil_plan(4, ((0, 1), (0, 2)), False)
    assert [len(rows) for rows in calls] == [len(alone.cls)] * 2


@pytest.mark.parametrize("orders", [[(0, 0)], [(0, 0), (0, 1)], [(0, 0), (2, 0)], [(1, 1)]])
def test_anchor_row_keeps_signed_zeros(cubic, orders):
    # the anchor pair reaches the world as given, not as x + step * 0
    w, calls = _recording(cubic, 4)
    fd.partial_tensors(w, NEG_ZERO, NEG_ZERO, orders)
    anchor = np.concatenate([NEG_ZERO, NEG_ZERO])
    same = [row for row in calls[0] if np.array_equal(row, anchor)]
    assert len(same) == (1 if orders != [(1, 1)] else 0)
    assert all(np.array_equal(np.signbit(row), np.signbit(anchor)) for row in same)
    if (0, 0) in orders:
        got = fd.partial_tensors(cubic, NEG_ZERO, NEG_ZERO, orders)[(0, 0)]
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got == cubic(NEG_ZERO, NEG_ZERO)


def test_plan_is_built_once(cubic):
    fd.part_tensors(cubic, X0, X0, _COEFFICIENT_ORDERS)
    before = fd._stencil_plan.cache_info()
    fd.part_tensors(cubic, XP0, XP0, _COEFFICIENT_ORDERS)
    after = fd._stencil_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_coincident_plan_is_closed_under_swap():
    plan = fd._stencil_plan(4, tuple(_COEFFICIENT_ORDERS), True)
    assert len(plan.cls) == 1057 and len(plan.gather) == 1184
    assert np.array_equal(plan.swap[plan.swap], np.arange(len(plan.cls)))
    assert np.array_equal(plan.offs_x[plan.swap], plan.offs_xp)
    assert np.array_equal(plan.cls[plan.swap], plan.cls)


@pytest.mark.parametrize("orders, points", [((0, 1), 16), ((1, 1), 256), ((0, 2), 105)])
def test_newton_plans_keep_their_size(orders, points):
    # the Newton residuals and Jacobians of chains, lines and seeds read these
    # separated plans; their fourth-order first-derivative rule stays
    plan = fd._stencil_plan(4, (orders,), False)
    assert len(plan.cls) == points


def test_parts_match_world_accessors(all_worlds):
    # one rule (worlds.parts) forms the two parts everywhere: the stencil
    # engine's anchor value and w.sym / w.asym agree bit for bit
    for name, w in all_worlds.items():
        t = fd.part_tensors(w, X0, XP0, [(0, 0)])
        assert t["sym"][(0, 0)] == w.sym(X0, XP0), name
        assert t["asym"][(0, 0)] == w.asym(X0, XP0), name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("anchor", ["coincident", "separated"])
def test_non_finite_world_value_raises(cubic, bad, anchor):
    xp = X0 if anchor == "coincident" else XP0

    def spoiled(a, b):
        out = np.array(cubic(a, b), dtype=float)
        out.reshape(-1)[-1] = bad
        return out

    w = world_from_callable(spoiled, 4)
    for run in (lambda: fd.part_tensors(w, X0, xp, _COEFFICIENT_ORDERS),
                lambda: fd.partial_tensors(w, X0, xp, [(1, 1)]),
                lambda: fd.partial_tensors(w, X0, xp, [(2, 0)])):
        with pytest.raises(FloatingPointError, match="non-finite"):
            run()


# Step and rule classes.  A world whose spec has no screening beta is a
# polynomial in xi, on which every rule of an order-2 to order-4 tensor is
# exact, the 2-point rule on a first-derivative axis included: those orders
# share one step and take that rule.  case2 and callable worlds keep the
# per-order balance of truncation against rounding, and the 4-point rule at
# order 2.
EPS = np.finfo(float).eps
BALANCE = {1: EPS ** (1 / 5), 2: EPS ** (1 / 4), 3: EPS ** (1 / 5), 4: EPS ** (1 / 6)}
COINCIDENCE_REQUESTS = {"coefficients": (_COEFFICIENT_ORDERS, 625, 1057),
                        "curvature": (_F_ORDERS + _CURVATURE_ORDERS, 1937, 2993)}
ORDERS_2_TO_4 = [(nx, n - nx) for n in (2, 3, 4) for nx in range(n + 1)]


def _counting(w):
    """w's evaluator counting its points, and the list of per-call counts."""
    sizes = []

    def counted(a, b):
        sizes.append(int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]))))
        return w(a, b)

    return counted, sizes


def _points(w, x, xp, orders, second_order=False):
    """The world points that partial_tensors reads for orders on w, through
    a counting world with w's spec."""
    counted, sizes = _counting(w)
    fd.partial_tensors(WorldFunction(counted, w.dim, spec=w.spec, label=w.kind), x, xp, orders,
                       second_order=second_order)
    return sum(sizes)


def _assert_plain_is_second_order(w, x, xp, name, orders=ORDERS_2_TO_4):
    """A plain request of orders gives the bits of a second_order one, for
    the world and its parts."""
    plain = fd.part_tensors(w, x, xp, orders)
    second = fd.part_tensors(w, x, xp, orders, second_order=True)
    full = fd.partial_tensors(w, x, xp, orders, second_order=True)
    for key in orders:
        assert np.array_equal(full[key], second["full"][key]), (name, key)
        for part in PARTS:
            assert np.array_equal(plain[part][key], second[part][key]), (name, part, key)


@pytest.mark.parametrize("request_name", COINCIDENCE_REQUESTS)
def test_polynomial_worlds_share_one_step(all_worlds, request_name):
    # a counting world that carries the spec, as the benchmark builds it,
    # takes the plain world's steps: one class for orders 2 to 4
    orders, points, _ = COINCIDENCE_REQUESTS[request_name]
    s = 1.0 + np.max(np.abs(X0))
    for name, w in all_worlds.items():
        if name == "case2":
            continue
        assert fd.step_size(w, 1, X0, X0) == BALANCE[1] * s, name
        steps = {fd.step_size(w, n, X0, X0) for n in (2, 3, 4)}
        assert len(steps) == 1 and steps.pop() > BALANCE[4] * s, name
        counted, sizes = _counting(w)
        got = fd.part_tensors(WorldFunction(counted, 4, spec=w.spec, label=w.kind), X0, X0, orders)
        want = fd.part_tensors(w, X0, X0, orders)
        assert sizes == [points], name
        for part in PARTS:
            for key in orders:
                assert np.array_equal(got[part][key], want[part][key]), (name, part, key)


@pytest.mark.parametrize("request_name", COINCIDENCE_REQUESTS)
def test_screened_and_callable_worlds_keep_the_balance(all_worlds, request_name):
    # case2 and every world without a spec take the per-order balance, and
    # the coincidence requests their 1,057 and 2,993 points
    orders, _, points = COINCIDENCE_REQUESTS[request_name]
    s = 1.0 + np.max(np.abs(X0))
    for name, w in all_worlds.items():
        counted, sizes = _counting(w)
        for kept in ((world_from_callable(counted, 4, label=w.kind),)
                     + ((WorldFunction(counted, 4, spec=w.spec),) if name == "case2" else ())):
            sizes.clear()
            for n in (1, 2, 3, 4):
                assert fd.step_size(kept, n, X0, X0) == BALANCE[n] * s, (name, n)
            got = fd.part_tensors(kept, X0, X0, orders)
            assert sizes == [points], name
            want = naive_part_tensors(kept, X0, X0, orders)
            for part in PARTS:
                for key in orders:
                    assert np.array_equal(got[part][key], want[part][key]), (name, part, key)


@pytest.mark.parametrize("anchor", ["coincident", "separated"])
def test_polynomial_worlds_take_the_two_point_rule_from_order_2(all_worlds, anchor):
    # plain and second_order requests agree bit for bit at orders 2 to 4, the
    # seven-point rule included; a plain (1, 1) tensor reads 49 points, not
    # 256, at either anchor; order 1 keeps the 4-point rule, and case2 and
    # callable worlds keep it at order 2
    x, xp = ANCHORS[anchor]
    for name, w in all_worlds.items():
        if name == "case2":
            assert _points(w, x, xp, [(1, 1)]) == 256
            continue
        _assert_plain_is_second_order(w, x, xp, name)
        assert _points(w, x, xp, [(1, 1)]) == SEVEN_POINT_COUNTS[(1, 1)][-1], name
        assert _points(w, x, xp, [(1, 0)]) == 16, name
        counted, sizes = _counting(w)
        fd.partial_tensors(world_from_callable(counted, 4), x, xp, [(1, 1)])
        assert sizes == [256], name


@pytest.mark.parametrize("doc", [{"kind": "cubic_a", "a3": [1e308]},
                                 {"kind": "case1", "b": [1.0], "alpha": 1e200}],
                         ids=["huge-a3", "huge-alpha"])
def test_polynomial_step_shrinks_with_the_coefficients(doc):
    # the shared step shrinks with max(1, max|a3|, |alpha| max|b|), and
    # never below the balance: extreme worlds keep the balance's steps
    w = world(dim=1, metric=[1], **doc)
    x = np.array([0.1])
    for n in (1, 2, 3, 4):
        assert fd.step_size(w, n, x, x) == BALANCE[n] * 1.1
    # the rule follows the class, not the step: still 2 points per axis
    # from order 2 on, and 4 at order 1
    assert _points(w, x, x, [(1, 1)]) == 4 and _points(w, x, x, [(1, 0)]) == 4
    huge_a3 = doc["kind"] == "cubic_a"
    _assert_plain_is_second_order(w, x, x, doc["kind"],
                                  [key for key in ORDERS_2_TO_4 if sum(key) < 4 or not huge_a3])
    if huge_a3:
        # order 4's weighted sums overflow against values near 1e300: an
        # error, and no numpy warning
        for key in [key for key in ORDERS_2_TO_4 if sum(key) == 4]:
            for second_order in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(FloatingPointError, match="tensor overflows at "
                                                                 "derivative order 4"):
                        fd.partial_tensors(w, x, x, [key], second_order=second_order)
