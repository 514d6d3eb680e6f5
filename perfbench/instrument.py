"""Counting and tracing applied to tgeom from outside the library.

Two instruments, both installed only around untimed passes:

* ``CountingWorlds`` wraps every world as
  ``WorldFunction(counting(make_world(spec)), dim, spec=spec, label=kind)``
  through the public constructor, so calls made through ``sym``/``asym``/
  ``split`` are counted too and ``w.spec`` stays readable for the sampler.
* ``Tracer`` records spans (name, start, end, parent, task) in memory by
  patching each public name where the library looks it up, and restores every
  patch on exit, so timed runs execute unpatched code.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np

from tgeom import calculus, cli, degeneracy, fd, lines, tubes
from tgeom.worlds import WorldFunction, WorldSpec, make_world


def _points(x, xp) -> int:
    shape = np.broadcast_shapes(np.shape(x)[:-1], np.shape(xp)[:-1])
    return int(math.prod(shape))


class Recorder:
    """World-call counts, layer counts and (when tracing) spans."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.calls = 0
        self.points = 0
        self.counts = Counter()          # layer counters, e.g. "fd.tensor_calls"
        self.calls_in = Counter()        # world calls made while a span name is open
        self.points_in = Counter()       # world points evaluated while a span name is open
        self.spans = []                  # [name, start, end, parent, task]
        self._stack = []
        self._open = Counter()
        self.task = None

    def world_call(self, x, xp):
        n = _points(x, xp)
        self.calls += 1
        self.points += n
        for name, depth in self._open.items():
            if depth:
                self.calls_in[name] += 1
                self.points_in[name] += n

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[index][0]] -= 1

    def self_ms(self) -> dict:
        """Self time per span name: duration minus the time child spans cover
        (spans nest strictly, so coverage is the sum of child durations)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return dict(out)

    def span_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "task": t}
                for n, s, e, p, t in self.spans]


def counting(world: WorldFunction, rec: Recorder):
    """Evaluator that counts calls and points, then defers to ``world``."""
    def evaluator(x, xp):
        rec.world_call(x, xp)
        if not rec.trace:
            return world(x, xp)
        index = rec.begin("worlds")
        try:
            return world(x, xp)
        finally:
            rec.end(index)
    return evaluator


def counted_world(spec: WorldSpec, rec: Recorder) -> WorldFunction:
    return WorldFunction(counting(make_world(spec), rec), spec.dim, spec=spec,
                         label=spec.kind)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_fd(rec, args, kwargs, out, single):
    rec.counts["fd.tensor_calls"] += 1
    rec.counts["fd.tensors_requested"] += 1 if single else len(_arg(args, kwargs, 3, "orders"))


def _count_sampler(rec, args, kwargs, out):
    rec.counts["tubes.sampler_taus"] += len(_arg(args, kwargs, 3, "tau_grid"))
    rec.counts["tubes.roots"] += sum(len(radii) for _, radii in out)


def _count_chain(rec, args, kwargs, out):
    rec.counts["tubes.chain_steps"] += int(_arg(args, kwargs, 5, "steps"))


def _count_implicit(rec, args, kwargs, out):
    rec.counts["lines.implicit_samples"] += len(out.params)
    rec.counts["lines.unconverged_samples"] += int(np.sum(~np.asarray(out.converged)))


def _count_ode(rec, args, kwargs, out):
    # gradient_line_ode integrates with n0 = max(4, steps) RK4 steps, then
    # doubles until two successive endpoints agree: n0, 2 n0, ..., n_final.
    steps = kwargs.get("steps", args[5] if len(args) > 5 else 64)
    n0 = max(4, int(steps))
    doublings = int(round(math.log2((len(out.params) - 1) / n0)))
    rec.counts["lines.ode_doublings"] += doublings
    rec.counts["lines.ode_rk4_steps"] += n0 * (2 ** (doublings + 1) - 1)


def _count_report(rec, args, kwargs, out):
    rec.counts["degeneracy.checks"] += len(out.checks)
    rec.counts["degeneracy.checks_failed"] += sum(not c.verdict for c in out.checks)


def _counter(key):
    def count(rec, args, kwargs, out):
        rec.counts[key] += 1
    return count


# (module, attribute, span name, counter).  Each entry is the name as the
# library looks it up: ``lines`` imports coincidence_coefficients by name,
# ``tubes`` and ``degeneracy`` import gram by name, and every module reaches
# the stencil engine as ``fd.<name>``.
_HOOKS = [
    (fd, "partial_tensor", "fd",
     lambda rec, a, k, out: _count_fd(rec, a, k, out, True)),
    (fd, "partial_tensors", "fd",
     lambda rec, a, k, out: _count_fd(rec, a, k, out, False)),
    (tubes, "gram", "products.gram", _counter("products.gram_calls")),
    (degeneracy, "gram", "products.gram", _counter("products.gram_calls")),
    (tubes, "sample_axisymmetric_tube", "tubes.sampler", _count_sampler),
    (tubes, "advance_seed", "tubes.chain", None),
    (tubes, "build_broken_tube", "tubes.chain", _count_chain),
    (calculus, "coincidence_coefficients", "calculus.coincidence",
     _counter("calculus.coincidence_calls")),
    (lines, "coincidence_coefficients", "calculus.coincidence",
     _counter("calculus.coincidence_calls")),
    (calculus, "curvature_bundle", "calculus.curvature",
     _counter("calculus.curvature_calls")),
    (lines, "gradient_line_implicit", "lines.implicit", _count_implicit),
    (lines, "gradient_line_ode", "lines.ode", _count_ode),
    (lines, "initial_velocity", "lines.velocity", None),
    (degeneracy, "degeneration_check", "degeneracy", _count_report),
    (degeneracy, "euclideaness_check", "degeneracy", _count_report),
    (cli, "run", "cli.run", None),
]


def _hooked(rec, fn, span, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span == "fd" and rec.is_open("fd"):
            return fn(*args, **kwargs)  # partial_tensor delegates to partial_tensors
        index = rec.begin(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if count is not None:
            count(rec, args, kwargs, out)
        return out
    return wrapper


class Tracer:
    """Context manager installing every span hook; restores them on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved = []

    def __enter__(self):
        for module, name, span, count in _HOOKS:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, _hooked(self.rec, original, span, count))
        return self.rec

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False


class CountingCli:
    """Patch ``tgeom.cli.make_world`` so an in-process ``cli.run`` builds
    counted worlds."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._original = None

    def __enter__(self):
        self._original = cli.make_world
        cli.make_world = lambda spec: counted_world(spec, self.rec)
        return self.rec

    def __exit__(self, *exc):
        cli.make_world = self._original
        return False
