"""Central-difference engine for mixed two-point partial derivatives.

Computes tensors d^nx/dx^... d^np/dxp^... of a two-point scalar on a
d-dimensional chart.  Stencils are tensor products of 1-D central rules, one
rule per distinct axis with the axis multiplicity selecting the rule.  In
tensors of total order 1 and 2 a first-derivative axis takes the 4-point
fourth-order rule (exact through quartic polynomials, which covers every
shipped world family except the screened rational one); in tensors of total
order 3 and 4 it takes the 2-point central rule, since their steps balance a
second-order truncation anyway.  Higher multiplicities use the standard
second-order rules.  An entry with k distinct first-derivative axes then
costs 2^k points instead of 4^k: at d=4 the coincidence coefficients read
1,057 unique points and the curvature bundle 2,993.

A request with second_order=True takes the 2-point rule at every order.  The
damped Newton solves (tgeom.newton) ask for it for their order-2 Jacobians:
a Jacobian only steers the step, and the residual, still on the 4-point
rule, fixes the root.  At d=4 a (1, 1) tensor then reads 64 points instead
of 256 and a (0, 2) tensor 33 instead of 105.  Order 2's step is already
the second-order balance, so no step changes.

Step sizes balance truncation against rounding per total derivative order:

    order 1: eps^(1/5) * s     order 2: eps^(1/4) * s
    order 3: eps^(1/5) * s     order 4: eps^(1/6) * s

with s = 1 + max-norm of the anchor points; no caller sets a step of its
own.  Each request is served by a stencil plan, built once per (dim,
orders, coincidence, second_order): the unique stencil points of all
requested tensors, as integer offset rows per step class in no particular
order, with gather indices back to each entry's stencil.  One
world-function call over the unique points then serves every tensor.
part_tensors serves the world function and both its parts from that one
call at coincidence (xp = x), where every swapped pair (Q, P) is itself a
stencil point, and from two calls elsewhere; kind_tensor serves the
two-point function k(a, b) of a tube or line kind.
Reading one value for several entries assumes pointwise evaluation
(worlds.world_from_callable).

One contraction path serves every order, rule and number of value rows:
the plan groups a tensor's entries by stencil length k, each group is one
batched (1, k) @ (k, 1) product over the entries' stencil values, and one
index map mirrors the entries into the tensor.  The stencil values are
made C-contiguous first: a contiguous product is the BLAS dot that a
per-entry np.dot calls, so each entry rounds as np.dot would, while a
strided operand falls to numpy's own loop, which sums in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .worlds import check_kind, parts

_EPS = np.finfo(float).eps

# Truncation/rounding balance for a second-order-accurate rule of derivative
# order n solves h^2 ~ eps/h^n, i.e. h ~ eps^(1/(n+2)).  Order 1 uses the
# fourth-order rule, whose optimum sits near eps^(1/5).  Every rule of an
# order-3 or order-4 stencil is second order (_entry_stencil), so their
# steps are the second-order balance itself.
_STEP_COEF = {
    1: _EPS ** (1.0 / 5.0),
    2: _EPS ** (1.0 / 4.0),
    3: _EPS ** (1.0 / 5.0),
    4: _EPS ** (1.0 / 6.0),
}

# 1-D central rules keyed by multiplicity: (offsets, unit weights); the true
# weight is unit_weight / h^multiplicity.  _RULES[1] serves orders 1 and 2,
# _SECOND_ORDER_FIRST a multiplicity-1 axis of an order-3 or order-4 entry
# and of every entry of a second_order request.
_SECOND_ORDER_FIRST = (np.array([-1.0, 1.0]), np.array([-0.5, 0.5]))
_RULES = {
    1: (np.array([-2.0, -1.0, 1.0, 2.0]),
        np.array([1.0, -8.0, 8.0, -1.0]) / 12.0),
    2: (np.array([-1.0, 0.0, 1.0]),
        np.array([1.0, -2.0, 1.0])),
    3: (np.array([-2.0, -1.0, 1.0, 2.0]),
        np.array([-0.5, 1.0, -1.0, 0.5])),
    4: (np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
        np.array([1.0, -4.0, 6.0, -4.0, 1.0])),
}


def step_size(total_order: int, x, xp) -> float:
    s = 1.0 + max(np.max(np.abs(x)), np.max(np.abs(xp)))
    return _STEP_COEF[total_order] * s


def _entry_stencil(dim: int, combo_x: tuple, combo_xp: tuple, second_order: bool = False):
    """Unit-step product stencil for one tensor entry.

    Returns (offs_x, offs_xp, unit_weights) where the displacement of stencil
    point k is h * offs[k] and its weight is unit_weights[k] / h^order.  At
    total order 3 or 4, or when second_order is set, a multiplicity-1 axis
    takes the 2-point rule.
    """
    two_point = second_order or len(combo_x) + len(combo_xp) >= 3
    offs, wts = np.zeros((1, 2 * dim)), np.ones(1)
    for shift, combo in ((0, combo_x), (dim, combo_xp)):
        for axis in sorted(set(combo)):
            mult = combo.count(axis)
            nodes, unit = _SECOND_ORDER_FIRST if mult == 1 and two_point else _RULES[mult]
            m = len(wts)
            offs = np.repeat(offs, len(nodes), axis=0)
            offs[:, shift + axis] += np.tile(nodes, m)
            wts = np.repeat(wts, len(nodes)) * np.tile(unit, m)
    offs = offs.astype(np.int8)  # integers in [-2, 2]
    return offs[:, :dim], offs[:, dim:], wts


def _tensor_entries(dim: int, nx: int, npr: int, second_order: bool = False):
    """All unique entries of a (nx, npr) tensor with their stencils and the
    index permutations each entry scatters to."""
    entries = []
    for cx in combinations_with_replacement(range(dim), nx):
        for cp in combinations_with_replacement(range(dim), npr):
            offs_x, offs_xp, wts = _entry_stencil(dim, cx, cp, second_order)
            targets = {px + pp for px in permutations(cx) for pp in permutations(cp)}
            entries.append((offs_x, offs_xp, wts, tuple(targets)))
    return entries


@dataclass(frozen=True)
class _Plan:
    """The unique stencil points of one tensor request and how to read them.

    Unique row r is the point pair (x + step * offs_x[r], xp + step * offs_xp[r])
    with the step of class cls[r], step_size(class_orders[cls[r]], x, xp):
    orders 1 and 3 share a step.  The rows come in no particular order
    (np.unique sorts them).  The zero-offset row, the anchor pair at any
    step, is listed once, in class 0, as row anchor; its points are
    (x, xp) themselves, so a -0.0 coordinate keeps its sign.  Order (0, 0)
    reads that row.  In a coincident plan swap[r] is the row of the swapped
    pair (Q, P), which at xp = x is a stencil point of the same step.
    """

    cls: np.ndarray               # (n,) int8
    offs_x: np.ndarray            # (n, d) int8
    offs_xp: np.ndarray           # (n, d) int8
    gather: np.ndarray            # (m,) int32: the row of each stencil point, entry by entry
    swap: np.ndarray | None       # (n,) int32, coincident plans only
    anchor: int | None            # the zero-offset row, if any
    class_orders: tuple           # per step class, a total order that takes its step
    # per requested order: (order, class, groups, place).  The entries of a
    # tensor are grouped by stencil length k, shortest first; a group is
    # (rows, unit weights), both (entries, k), rows being slices of gather.
    # place (d,)*order maps each tensor index to its entry's column in the
    # groups' concatenated values.  (0, 0) has no groups and place None.
    tensors: tuple


@lru_cache(maxsize=None)
def _stencil_plan(dim: int, orders: tuple, coincident: bool,
                  second_order: bool = False) -> _Plan:
    classes, tensors, blocks = {}, [], []  # classes: step coefficient -> (class, order)
    cursor = 0
    for nx, npr in orders:
        if nx == 0 and npr == 0:
            blocks.append(np.zeros((1, 1 + 2 * dim), dtype=np.int8))
            tensors.append(((nx, npr), 0, (), None))
            cursor += 1
            continue
        cls, _ = classes.setdefault(_STEP_COEF[nx + npr], (len(classes), nx + npr))
        entries = sorted(_tensor_entries(dim, nx, npr, second_order), key=lambda e: len(e[2]))
        units, place = {}, np.empty((dim,) * (nx + npr), dtype=np.intp)
        for column, (offs_x, offs_xp, wts, targets) in enumerate(entries):
            blocks.append(np.column_stack([np.full(len(wts), cls, dtype=np.int8), offs_x, offs_xp]))
            units.setdefault(len(wts), []).append(wts)
            place[tuple(np.transpose(targets))] = column
        groups = []
        for unit in map(np.array, units.values()):
            groups.append((slice(cursor, cursor + unit.size), unit))
            cursor += unit.size
        tensors.append(((nx, npr), cls, groups, place))

    rows = np.concatenate(blocks) if blocks else np.zeros((0, 1 + 2 * dim), dtype=np.int8)
    # zero offsets give the anchor pair itself whatever the step: one class
    rows[~np.any(rows[:, 1:], axis=1), 0] = 0
    if coincident:
        swapped = [0, *range(1 + dim, 1 + 2 * dim), *range(1, 1 + dim)]
        rows = np.concatenate([rows, rows[:, swapped]])
    unique, first, row_of = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    row_of = row_of.reshape(-1)  # some numpy 2.0.x releases keep a column axis
    zero = np.flatnonzero(~np.any(unique[:, 1:], axis=1))
    swap = None
    if coincident:
        # listed row j < cursor is stencil point j; row cursor + j its swap
        partner = np.concatenate([np.arange(cursor, 2 * cursor), np.arange(cursor)])
        swap = row_of[partner[first]].astype(np.int32)
    gather = row_of[:cursor].astype(np.int32)
    return _Plan(cls=unique[:, 0].copy(), offs_x=unique[:, 1:1 + dim].copy(),
                 offs_xp=unique[:, 1 + dim:].copy(), gather=gather, swap=swap,
                 anchor=int(zero[0]) if zero.size else None,
                 class_orders=tuple(order for _, order in classes.values()),
                 tensors=tuple((order, cls, tuple((gather[sl].reshape(unit.shape), unit)
                                                  for sl, unit in groups), place)
                               for order, cls, groups, place in tensors))


class _Parts:
    """A world function and its two parts (worlds.parts) as three stacked
    value rows.  partial_tensors calls at_coincidence instead when xp = x:
    w(Q, P) is then read from the plan's own rows, so one world call serves
    all three."""

    def __init__(self, w):
        self.w = w

    def __call__(self, p, q):
        return self._rows(np.asarray(self.w(p, q), dtype=float),
                          np.asarray(self.w(q, p), dtype=float))

    def at_coincidence(self, p, q, swap):
        fwd = np.asarray(self.w(p, q), dtype=float)
        return self._rows(fwd, fwd[swap])

    @staticmethod
    def _rows(fwd, rev):
        return np.stack([fwd, *parts(fwd, rev)])


def partial_tensor(fn, x, xp, nx: int, npr: int, *, second_order: bool = False):
    """Mixed partial tensor of a two-point scalar fn(x, xp).

    fn must broadcast over leading axes.  Result shape is (d,)*(nx+npr) with
    the nx unprimed indices first.  Entries related by permutations inside
    the unprimed (or primed) group are computed once and mirrored.
    """
    return partial_tensors(fn, x, xp, [(nx, npr)], second_order=second_order)[(nx, npr)]


def partial_tensors(fn, x, xp, orders, *, second_order: bool = False):
    """Batch form: orders is a list of (nx, npr); one fn call evaluates the
    unique stencil points of every requested tensor.  fn may return value
    rows stacked on a leading axis; each row then gets its own tensor.
    second_order=True puts the 2-point rule on every first-derivative axis
    (module docstring)."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    d = x.shape[-1]
    coincident = isinstance(fn, _Parts) and np.array_equal(x, xp)
    plan = _stencil_plan(d, tuple((nx, npr) for nx, npr in orders), coincident,
                         second_order)

    # stencils far out in the chart overflow: raise below rather than warn
    with np.errstate(all="ignore"):
        # the anchor row alone still reads a class step
        class_step = np.array([step_size(order, x, xp) for order in plan.class_orders] or [0.0])
        for (nx, npr), cls, _, _ in plan.tensors:
            total = nx + npr
            if total and not np.isfinite(class_step[cls]**total):
                raise FloatingPointError(f"stencil step overflows at derivative order {total}")

        if plan.gather.size:
            step = class_step[plan.cls, None]
            p = x + step * plan.offs_x
            q = xp + step * plan.offs_xp
            if plan.anchor is not None:  # x + step * 0 would turn -0.0 into 0.0
                p[plan.anchor], q[plan.anchor] = x, xp
            values = np.asarray(fn.at_coincidence(p, q, plan.swap) if coincident else fn(p, q),
                                dtype=float)
            if not np.all(np.isfinite(values)):
                raise FloatingPointError("non-finite world-function value in stencil")
        else:
            values = np.empty(0)

    out = {}
    for (nx, npr), cls, groups, place in plan.tensors:
        if place is None:
            out[(nx, npr)] = np.array(values[..., plan.anchor])
            continue
        scale = class_step[cls]**(nx + npr)
        # one (1, k) @ (k, 1) product per entry and value row; on contiguous
        # stencil values it is np.dot's BLAS dot, which a strided operand
        # would swap for a loop summing in another order
        vals = [(np.ascontiguousarray(values[..., rows])[..., None, :]
                 @ (unit / scale)[..., None])[..., 0, 0] for rows, unit in groups]
        out[(nx, npr)] = np.concatenate(vals, axis=-1)[..., place]
    return out


def part_tensors(w, x, xp, orders, *, second_order: bool = False):
    """partial_tensors of w and of its parts, keyed "full", "sym", "asym".

    One stencil serves all three: one world call over its unique points at
    coincidence (xp = x), two elsewhere, w(P, Q) and w(Q, P).
    """
    stacked = partial_tensors(_Parts(w), x, xp, orders, second_order=second_order)
    return {part: {key: t[i] for key, t in stacked.items()}
            for i, part in enumerate(("full", "sym", "asym"))}


def kind_tensor(w, kind: str, a, b, na: int, nb: int, *, second_order: bool = False):
    """Partial tensor, na a-indices then nb b-indices, of the kind's k(a, b)
    (WorldFunction.of_kind).  The past kind differentiates w itself at
    (b, a), then moves the b-axes last: a swapped-argument lambda would sum
    each stencil in transposed order and round differently."""
    if check_kind(kind) == "n":
        return part_tensors(w, a, b, [(na, nb)], second_order=second_order)["sym"][(na, nb)]
    if kind == "f":
        return partial_tensor(w, a, b, na, nb, second_order=second_order)
    return np.moveaxis(partial_tensor(w, b, a, nb, na, second_order=second_order),
                       range(nb), range(na, na + nb))
