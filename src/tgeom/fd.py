"""Central-difference engine for mixed two-point partial derivatives.

Computes tensors d^nx/dx^... d^np/dxp^... of a two-point scalar on a
d-dimensional chart.  Stencils are tensor products of 1-D central rules, one
rule per distinct axis with the axis multiplicity selecting the rule.  The
first-derivative rule is the 5-point fourth-order one (exact through quartic
polynomials, which covers every shipped world family except the screened
rational one); higher orders use the standard second-order rules.

Step sizes balance truncation against rounding per total derivative order:

    order 1: eps^(1/5) * s     order 2: eps^(1/4) * s
    order 3: eps^(1/5) * s     order 4: eps^(1/6) * s

with s = 1 + max-norm of the anchor points.  All stencil points for one
tensor request are evaluated in a single batched world-function call;
part_tensors serves the world function and both its parts from two calls,
and kind_tensor the two-point function k(a, b) of a tube or line kind.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .worlds import check_kind

_EPS = np.finfo(float).eps

# Truncation/rounding balance for a second-order-accurate rule of derivative
# order n solves h^2 ~ eps/h^n, i.e. h ~ eps^(1/(n+2)).  Order 1 uses the
# fourth-order rule, whose optimum sits near eps^(1/5).
_STEP_COEF = {
    1: _EPS ** (1.0 / 5.0),
    2: _EPS ** (1.0 / 4.0),
    3: _EPS ** (1.0 / 5.0),
    4: _EPS ** (1.0 / 6.0),
}

# 1-D central rules keyed by multiplicity: (offsets, unit weights); the true
# weight is unit_weight / h^multiplicity.
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


def _axis_groups(combo):
    """(axis, multiplicity) pairs for a sorted index combination."""
    groups = []
    for axis in sorted(set(combo)):
        groups.append((axis, combo.count(axis)))
    return groups


@lru_cache(maxsize=None)
def _entry_stencil(dim: int, combo_x: tuple, combo_xp: tuple):
    """Unit-step product stencil for one tensor entry.

    Returns (offs_x, offs_xp, unit_weights, order) where the displacement of
    stencil point k is h * offs[k] and its weight is unit_weights[k] / h^order.
    """
    offs_x = np.zeros((1, dim))
    offs_xp = np.zeros((1, dim))
    wts = np.ones(1)

    def expand(offs_x, offs_xp, wts, axis, mult, primed):
        nodes, unit = _RULES[mult]
        k = len(nodes)
        m = offs_x.shape[0]
        ox = np.repeat(offs_x, k, axis=0)
        op = np.repeat(offs_xp, k, axis=0)
        tiled = np.tile(nodes, m)
        if primed:
            op[:, axis] += tiled
        else:
            ox[:, axis] += tiled
        return ox, op, np.repeat(wts, k) * np.tile(unit, m)

    for axis, mult in _axis_groups(combo_x):
        offs_x, offs_xp, wts = expand(offs_x, offs_xp, wts, axis, mult, False)
    for axis, mult in _axis_groups(combo_xp):
        offs_x, offs_xp, wts = expand(offs_x, offs_xp, wts, axis, mult, True)
    order = len(combo_x) + len(combo_xp)
    # offsets are integers in [-2, 2]; int8 keeps the cached plans, which hold
    # one offset row per stencil point, at an eighth of their float size
    return offs_x.astype(np.int8), offs_xp.astype(np.int8), wts, order


@lru_cache(maxsize=None)
def _tensor_plan(dim: int, nx: int, npr: int):
    """All unique entries of a (nx, npr) tensor with their stencils and the
    index permutations each entry scatters to."""
    entries = []
    for cx in combinations_with_replacement(range(dim), nx):
        for cp in combinations_with_replacement(range(dim), npr):
            offs_x, offs_xp, wts, order = _entry_stencil(dim, cx, cp)
            targets = set()
            for px in permutations(cx):
                for pp in permutations(cp):
                    targets.add(px + pp)
            entries.append((offs_x, offs_xp, wts, order, tuple(targets)))
    return entries


def partial_tensor(fn, x, xp, nx: int, npr: int, h: float | None = None):
    """Mixed partial tensor of a two-point scalar fn(x, xp).

    fn must broadcast over leading axes.  Result shape is (d,)*(nx+npr) with
    the nx unprimed indices first.  Entries related by permutations inside
    the unprimed (or primed) group are computed once and mirrored.
    """
    results = partial_tensors(fn, x, xp, [(nx, npr)], h=h)
    return results[(nx, npr)]


def partial_tensors(fn, x, xp, orders, h: float | None = None):
    """Batch form: orders is a list of (nx, npr); one fn call evaluates every
    stencil point of every requested tensor.  fn may return value rows
    stacked on a leading axis; each row then gets its own tensor."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    d = x.shape[-1]

    # stencils far out in the chart overflow: raise below rather than warn
    with np.errstate(all="ignore"):
        pts_x, pts_xp = [], []
        layout = []  # (order key, entry list with slice bookkeeping)
        cursor = 0
        for nx, npr in orders:
            if nx == 0 and npr == 0:
                layout.append(((nx, npr), None))
                continue
            total = nx + npr
            step = h if h is not None else step_size(total, x, xp)
            if not np.isfinite(step**total):
                raise FloatingPointError(f"stencil step overflows at derivative order {total}")
            plan = _tensor_plan(d, nx, npr)
            entry_meta = []
            for offs_x, offs_xp, wts, order, targets in plan:
                k = offs_x.shape[0]
                pts_x.append(x + step * offs_x)
                pts_xp.append(xp + step * offs_xp)
                entry_meta.append((slice(cursor, cursor + k),
                                   wts / step**order, targets))
                cursor += k
            layout.append(((nx, npr), entry_meta))

        if cursor:
            all_x = np.concatenate(pts_x, axis=0)
            all_xp = np.concatenate(pts_xp, axis=0)
            values = np.asarray(fn(all_x, all_xp), dtype=float)
            if not np.all(np.isfinite(values)):
                raise FloatingPointError("non-finite world-function value in stencil")
        else:
            values = np.empty(0)
    rows = np.atleast_2d(values)

    out = {}
    for (nx, npr), entry_meta in layout:
        if entry_meta is None:
            out[(nx, npr)] = np.asarray(fn(x, xp), dtype=float)
            continue
        tensor = np.zeros((len(rows),) + (d,) * (nx + npr))
        for sl, wts, targets in entry_meta:
            val = [np.dot(row[sl], wts) for row in rows]
            for idx in targets:
                tensor[(slice(None),) + idx] = val
        out[(nx, npr)] = tensor if values.ndim == 2 else tensor[0]
    return out


def part_tensors(w, x, xp, orders, h: float | None = None):
    """partial_tensors of w and of its parts, keyed "full", "sym", "asym".

    One stencil serves all three: two world calls, w(P, Q) and w(Q, P),
    with the parts formed pointwise exactly as w.sym / w.asym form them.
    """
    def parts(p, q):
        fwd = np.asarray(w(p, q), dtype=float)
        rev = np.asarray(w(q, p), dtype=float)
        return np.stack([fwd, 0.5 * (fwd + rev), 0.5 * (fwd - rev)])

    stacked = partial_tensors(parts, x, xp, orders, h=h)
    return {part: {key: t[i] for key, t in stacked.items()}
            for i, part in enumerate(("full", "sym", "asym"))}


def kind_tensor(w, kind: str, a, b, na: int, nb: int):
    """Partial tensor, na a-indices then nb b-indices, of the kind's k(a, b)
    (WorldFunction.of_kind).  The past kind differentiates w itself at
    (b, a), then moves the b-axes last: a swapped-argument lambda would sum
    each stencil in transposed order and round differently."""
    if check_kind(kind) == "n":
        return part_tensors(w, a, b, [(na, nb)])["sym"][(na, nb)]
    if kind == "f":
        return partial_tensor(w, a, b, na, nb)
    return np.moveaxis(partial_tensor(w, b, a, nb, na), range(nb), range(na, na + nb))


def field_derivative(field, x, h: float | None = None):
    """Fourth-order central derivative of an array-valued one-point field.

    Returns an array of shape field(x).shape + (d,), the last axis being the
    differentiation axis.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    step = h if h is not None else _STEP_COEF[1] * (1.0 + np.max(np.abs(x)))
    nodes, unit = _RULES[1]
    sample = None
    out = None
    for axis in range(d):
        acc = None
        for node, wt in zip(nodes, unit):
            p = x.copy()
            p[axis] += step * node
            val = np.asarray(field(p), dtype=float)
            acc = wt * val if acc is None else acc + wt * val
        if out is None:
            sample = acc
            out = np.zeros(sample.shape + (d,))
        out[..., axis] = acc / step
    return out
