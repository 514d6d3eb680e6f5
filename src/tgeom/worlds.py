"""World functions: the single source of geometric truth.

A world function is half the squared distance between two chart points,
w(x, x') = rho^2/2, vanishing on the diagonal but not necessarily symmetric
in its arguments.  Everything else in this package is computed from pointwise
evaluations of one closed form, with xi = x - x' and xi^2 = g_ik xi^i xi^k:

    w = b.xi (1 + alpha h(xi^2)) + 1/2 xi^2 + 1/6 a_ikl xi^i xi^k xi^l

with constant metric g (diagonal signature or full symmetric matrix),
h(s) = s, or h(s) = 1 / (1 + beta s) when a screening constant beta is
given.  Each family keeps the terms whose parameters it takes: euclidean
none, constant_a b, case1 b and alpha, case2 b, alpha and beta, cubic_a
a3.  The families are restricted to closed forms so that every downstream
computation has an analytic oracle.

All evaluators broadcast over leading axes: x and xp may have shape (..., d).
WorldFunction instances are immutable; evaluation is pure and thread-safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidWorldSpecError, SingularMetricError

WORLD_KINDS = ("euclidean", "constant_a", "case1", "case2", "cubic_a")

#: future, past and neutral: the kinds of tubes and lines (WorldFunction.of_kind)
KINDS = ("f", "p", "n")

# JSON keys each kind requires beyond "kind", "dim", "metric".
_REQUIRED = {
    "euclidean": (),
    "constant_a": ("b",),
    "case1": ("b", "alpha"),
    "case2": ("b", "alpha", "beta"),
    "cubic_a": ("a3",),
}


def check_kind(kind: str) -> str:
    """The kind itself when it is one of KINDS; ValueError otherwise."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}: expected 'f', 'p' or 'n'")
    return kind


def kind_pair(kind: str, pq, qp):
    """The two products a first-order residual of the kind multiplies, from
    the products pq = (p.q) and qp = (q.p): both for 'n', pq twice for 'f',
    qp twice for 'p'."""
    return (pq, qp) if kind == "n" else (pq, pq) if kind == "f" else (qp, qp)


def _numeric(name, value):
    """value (None passes) as its own read-only float array; a non-numeric
    (bool, string, null, ragged) or non-finite entry is a spec error."""
    if value is None:
        return None
    try:
        raw = np.asarray(value)
    except ValueError as exc:
        raise InvalidWorldSpecError(f"{name} must be numeric") from exc
    if raw.dtype.kind not in "iuf":
        raise InvalidWorldSpecError(f"{name} must be numeric")
    arr = raw.astype(float)
    if not np.all(np.isfinite(arr)):
        raise InvalidWorldSpecError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _inv(m: np.ndarray, what: str, error=SingularMetricError) -> np.ndarray:
    """inv(m) for a finite m with a finite inverse and a 2-norm condition
    number at most 1e12 (a NaN one fails); error otherwise.  Every metric's rule."""
    if not np.all(np.isfinite(m)):
        raise error(f"{what} has non-finite entries")
    if np.linalg.cond(m) <= 1e12:
        inv = np.linalg.inv(m)
        if np.all(np.isfinite(inv)):
            return inv
    raise error(f"{what} is numerically singular")


def _symmetric(a: np.ndarray, perm) -> bool:
    """a == a permuted by perm to within 1e-12 max |a|, whatever the world's
    unit (an all-zero a passes); an overflowing difference fails."""
    with np.errstate(over="ignore"):
        return np.allclose(a, np.transpose(a, perm), rtol=0, atol=1e-12 * np.max(np.abs(a)))


def unit_of(values):
    """The largest power of two not above |values|, elementwise (0.5 at 0).
    Dividing by it is exact, so a world scaled by a power of two reads alike."""
    return np.ldexp(1.0, np.frexp(values)[1] - 1)


def _as_point(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise DimensionMismatchError(
            f"point has dimension {x.shape[-1]}, world has dimension {dim}"
        )
    if not np.all(np.isfinite(x)):
        raise DimensionMismatchError("point has non-finite coordinates")
    return x


@dataclass(frozen=True, eq=False)
class WorldSpec:
    """Parameters selecting one world from the built-in families, checked when built.

    Specs compare and hash by identity; compare to_dict() for value equality."""

    kind: str
    dim: int
    metric: np.ndarray  # (d, d) symmetric, condition number at most 1e12
    b: Optional[np.ndarray] = None  # anisotropy covector
    alpha: Optional[float] = None  # antisymmetry intensity
    beta: Optional[float] = None  # screening constant
    a3: Optional[np.ndarray] = None  # rank-3 fully symmetric array

    def __post_init__(self):
        # the fields become read-only float arrays and floats, as Multivector sets its points
        if self.kind not in WORLD_KINDS:
            raise InvalidWorldSpecError(f"unknown world kind {self.kind!r}")
        if type(self.dim) is not int or self.dim < 1:  # bool is an int subclass
            raise InvalidWorldSpecError("dim must be a positive integer")
        for name in ("metric", "b", "alpha", "beta", "a3"):
            value = _numeric(name, getattr(self, name))
            if name in ("alpha", "beta") and value is not None:
                if value.ndim:
                    raise InvalidWorldSpecError(f"{name} must be a number")
                value = float(value)
            object.__setattr__(self, name, value)
        g = self.metric
        if np.shape(g) != (self.dim, self.dim):
            raise InvalidWorldSpecError("metric must be a d x d matrix")
        if not _symmetric(g, (1, 0)):
            raise InvalidWorldSpecError("metric must be symmetric")
        _inv(g, "metric", InvalidWorldSpecError)
        for name in _REQUIRED[self.kind]:
            if getattr(self, name) is None:
                raise InvalidWorldSpecError(f"kind {self.kind!r} requires {name!r}")
        forbidden = {"b", "alpha", "beta", "a3"} - set(_REQUIRED[self.kind])
        for name in forbidden:
            if getattr(self, name) is not None:
                raise InvalidWorldSpecError(
                    f"kind {self.kind!r} does not take parameter {name!r}"
                )
        if self.b is not None and self.b.shape != (self.dim,):
            raise InvalidWorldSpecError("b must be a covector of length dim")
        if self.a3 is not None:
            if self.a3.shape != (self.dim,) * 3:
                raise InvalidWorldSpecError("a3 must have shape (d, d, d)")
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
                if not _symmetric(self.a3, perm):
                    raise InvalidWorldSpecError("a3 must be fully symmetric")

    # -- JSON wire format (the single config format consumed by the CLI) --

    @classmethod
    def from_dict(cls, doc: dict) -> "WorldSpec":
        if not isinstance(doc, dict):
            raise InvalidWorldSpecError("world spec must be a JSON object")
        try:
            kind = doc["kind"]
            dim = doc["dim"]
        except KeyError as exc:
            raise InvalidWorldSpecError(f"world spec missing key {exc}") from exc
        if type(dim) is not int:
            raise InvalidWorldSpecError("dim must be an integer")
        metric_doc = doc.get("metric")
        if metric_doc is None:
            raise InvalidWorldSpecError("world spec missing 'metric'")
        metric = _numeric("metric", metric_doc)
        if metric.ndim == 1:
            if metric.shape != (dim,):
                raise InvalidWorldSpecError("diagonal metric must have length dim")
            if not np.all(np.isin(metric, (1.0, -1.0))):
                raise InvalidWorldSpecError(
                    "diagonal metric entries must be +1/-1; "
                    "use a full matrix for a general constant metric"
                )
            metric = np.diag(metric)
        elif metric.ndim != 2:
            raise InvalidWorldSpecError("metric must be a vector or a matrix")
        a3 = _numeric("a3", doc.get("a3"))
        if a3 is not None and a3.ndim == 1:  # flattened row-major
            if a3.size != dim**3:
                raise InvalidWorldSpecError("flattened a3 must have length dim^3")
            a3 = a3.reshape((dim,) * 3)
        return cls(
            kind=kind,
            dim=dim,
            metric=metric,
            b=doc.get("b"),
            alpha=doc.get("alpha"),
            beta=doc.get("beta"),
            a3=a3,
        )

    @classmethod
    def from_json(cls, text: str) -> "WorldSpec":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
            raise InvalidWorldSpecError(f"malformed JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        g = self.metric
        # the diagonal form only for what from_dict reads back bit for bit
        if np.array_equal(g, np.diag(np.diag(g))) and np.all(np.isin(np.diag(g), (1.0, -1.0))):
            metric_doc = np.diag(g).tolist()
        else:
            metric_doc = g.tolist()
        doc = {"kind": self.kind, "dim": self.dim, "metric": metric_doc}
        if self.b is not None:
            doc["b"] = self.b.tolist()
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        if self.beta is not None:
            doc["beta"] = self.beta
        if self.a3 is not None:
            doc["a3"] = self.a3.ravel().tolist()
        return doc


def parts(fwd, rev):
    """(symmetric, antisymmetric) parts of a world function from its values
    in the two argument orders, fwd = w(x, xp) and rev = w(xp, x):
    (1/2 (fwd + rev), 1/2 (fwd - rev)).  Every part in the package is
    formed here, so all of them agree bit for bit."""
    return 0.5 * (fwd + rev), 0.5 * (fwd - rev)


class WorldFunction:
    """Immutable evaluator for a world function on a d-dimensional chart.

    ``w(x, xp)`` evaluates the world function; ``w.sym``/``w.asym`` give the
    symmetric and antisymmetric parts (``parts``), which sum to w up to
    rounding.
    """

    def __init__(self, evaluator: Callable, dim: int, spec: Optional[WorldSpec] = None,
                 label: str = "custom"):
        self._eval = evaluator
        self.dim = int(dim)
        self.spec = spec
        self.label = label

    @property
    def kind(self) -> str:
        return self.spec.kind if self.spec is not None else self.label

    @cached_property
    def unit(self) -> float:
        """Solvers read world values in unit_of(max |g_ik|) of the metric, 1.0 without a spec."""
        return 1.0 if self.spec is None else float(unit_of(np.max(np.abs(self.spec.metric))))

    @cached_property
    def polynomial_scale(self) -> Optional[float]:
        """max(1, max|a3| / unit, |alpha| max|b|) where the spec's closed form
        is a polynomial in xi, a shipped family without the screening beta;
        None for case2 and for a world without a spec, whose smoothness is
        not known.  fd sets the steps and rules of orders 2 to 4 by it."""
        spec = self.spec
        if spec is None or spec.beta is not None:
            return None
        scale = 1.0
        if spec.a3 is not None:
            scale = max(scale, float(np.max(np.abs(spec.a3))) / self.unit)
        if spec.alpha is not None:
            scale = max(scale, abs(spec.alpha) * float(np.max(np.abs(spec.b))))
        return scale

    def __call__(self, x, xp):
        x = _as_point(x, self.dim)
        xp = _as_point(xp, self.dim)
        return self._eval(x, xp)

    def sym(self, x, xp):
        """Symmetric part: the average of the two evaluation orders."""
        return parts(self(x, xp), self(xp, x))[0]

    def asym(self, x, xp):
        """Antisymmetric part: half the difference of the two orders."""
        return parts(self(x, xp), self(xp, x))[1]

    def of_kind(self, kind: str, x, xp):
        """The kind's two-point function k(x, xp): the world function read
        forward, w(x, xp), for the future kind; reversed, w(xp, x), for the
        past kind; its symmetric part for the neutral kind."""
        if check_kind(kind) == "f":
            return self(x, xp)
        if kind == "p":
            return self(xp, x)
        return self.sym(x, xp)

    def __repr__(self):
        return f"WorldFunction(kind={self.kind!r}, dim={self.dim})"


#: batch size from which cubic_a sums its cubic term in a loop, not einsum
_CUBIC_LOOP_MIN_POINTS = 512


def _cubic_sum(a3, terms, xi):
    """a_ikl xi^i xi^k xi^l summed term by term in (i, k, l) order, as
    np.einsum sums it; the loop over contiguous coordinate columns is several
    times faster on large batches, where einsum's per-point cost dominates,
    and slower on small ones.  terms lists (a_ikl, i, k, l) in that order."""
    if xi.size < _CUBIC_LOOP_MIN_POINTS * xi.shape[-1]:
        return np.einsum("ikl,...i,...k,...l", a3, xi, xi, xi)
    cols = np.moveaxis(xi, -1, 0).copy()
    acc = np.zeros(xi.shape[:-1])
    term = np.empty(xi.shape[:-1])
    for a, i, k, l in terms:
        np.multiply(a, cols[i], out=term)
        term *= cols[k]
        term *= cols[l]
        acc += term
    return acc


def make_world(spec: WorldSpec) -> WorldFunction:
    """Build the evaluator for a WorldSpec: the closed form of the module
    docstring without the terms whose parameters the spec lacks."""
    g, b, alpha, beta, a3 = spec.metric, spec.b, spec.alpha, spec.beta, spec.a3
    terms = None if a3 is None else [(float(a), *ikl) for ikl, a in np.ndenumerate(a3)]

    def evaluator(x, xp):
        xi = x - xp
        xi2 = np.einsum("...i,ij,...j", xi, g, xi)
        value = 0.5 * xi2
        if b is not None:
            bxi = np.einsum("...i,i", xi, b)
            if alpha is not None:
                h = xi2 if beta is None else 1.0 / (1.0 + beta * xi2)
                bxi = bxi * (1.0 + alpha * h)
            value = bxi + value
        if a3 is not None:
            value = value + _cubic_sum(a3, terms, xi) / 6.0
        return value

    return WorldFunction(evaluator, spec.dim, spec=spec, label=spec.kind)


def world_from_callable(fn: Callable, dim: int, label: str = "custom") -> WorldFunction:
    """Wrap an arbitrary evaluator (test fixtures, transformed worlds).

    The callable must vanish on the diagonal and broadcast over leading axes.
    Evaluation must be pointwise and batch-invariant: the value at a point
    pair may not depend on the other pairs of the call, their number or
    their order.  fd evaluates each distinct stencil point once and reads
    that value for every stencil entry holding the point, and at xp = x it
    reads w(Q, P) from the same call, so a batch-dependent evaluator would
    change derivatives.  The shipped families meet this bit for bit.
    Not part of the JSON wire format; the shipped families remain the only
    CLI-accessible worlds.
    """
    return WorldFunction(fn, dim, spec=None, label=label)
