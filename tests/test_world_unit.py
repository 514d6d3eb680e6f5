"""The world's unit is not a parameter.

Scaling the metric, b and a3 by lam = 4**k, and case1's alpha or case2's
beta by 1 / lam, multiplies every world value by exactly lam.  Every solver
reads world values in WorldFunction.unit, which scales by lam too, so tubes,
chains (of segment length 2**k mu), lines, verdicts and flags are those of
the unit-scale world bit for bit, and the world-valued coincidence fields,
coincident F tensors and chain parallel residuals are exactly lam times its.
"""

import re
import warnings

import numpy as np
import pytest

from tgeom import calculus, degeneracy, lines, products, tubes, world_from_callable
from tgeom.errors import GeometryError
from tgeom.worlds import unit_of
from conftest import random_a3, world

MINK = np.diag([1.0, -1.0, -1.0, -1.0])
A3 = random_a3(seed=0)
V = np.array([1.0, 0.25, -0.15, 0.1])
V = V / np.sqrt(V @ MINK @ V)
ORIGIN = np.zeros(4)
# world values stay finite at 4**+-160: the largest is about 1e98 and the
# smallest normal products of two about 1e-195
EXPONENTS = (-160, -30, -10, -4, 4, 10, 30, 160)
WORLD_VALUED = ("g", "a", "a3", "g3", "sigma_f", "sigma_p", "g_tilde")
CONNECTIONS = ("gamma", "beta", "gamma_tilde_f", "gamma_tilde_p")


def scaled(family, k):
    lam = 4.0 ** k
    metric = (lam * MINK).tolist()
    params = {"euclidean": {},
              "constant_a": {"b": [0.3 * lam, 0.1 * lam, 0, 0]},
              "case1": {"b": [lam, 0, 0, 0], "alpha": 0.2 / lam},
              "case2": {"b": [lam, 0, 0, 0], "alpha": 0.2, "beta": 1.0 / lam},
              "cubic_a": {"a3": (lam * A3).ravel().tolist()}}[family]
    return world(family, metric=metric, **params)


def _attempt(fn, convert=lambda out: out):
    try:
        return convert(fn())
    except GeometryError as exc:  # SolverError and ComplexLengthError too
        return f"{type(exc).__name__}: {exc}"


def _outputs(w, k):
    """Every scale-free output of the solvers on w, with chains of segment
    length 2**k mu and world-valued outputs divided by 4**k, and its
    coincidence coefficients."""
    out = {}
    y = np.array([1.0, 0, 0, 0])
    for kind in "nfp":
        out["tube", kind] = _attempt(
            lambda: tubes.sample_axisymmetric_tube(w, y, kind, np.linspace(-1, 2, 7)))
        u = V if tubes.kind_length_sq(w, kind, ORIGIN, V) > 0 else -V
        for mu in (0.1, 0.3):
            seed = _attempt(lambda: tubes.advance_seed(w, kind, ORIGIN, u, mu * 2.0 ** k))
            out["seed", kind, mu] = seed if isinstance(seed, str) else seed.tolist()
            if not isinstance(seed, str):
                out["chain", kind, mu] = _attempt(
                    lambda: tubes.build_broken_tube(w, kind, ORIGIN, seed, mu * 2.0 ** k, 3),
                    lambda chain: (chain.vertices.tolist(), chain.multiplicity_flags,
                                   (chain.parallel_residuals / 4.0 ** k).tolist()))
        out["implicit", kind] = _attempt(
            lambda: lines.gradient_line_implicit(w, kind, ORIGIN, [0.6, 0.1, 0.05, 0],
                                                 [0.02, 0.25, 0.5, 1.0]),
            lambda line: (line.points.tolist(), line.residuals.tolist(), line.converged.tolist(),
                          line.warnings))
        out["ode", kind] = _attempt(
            lambda: lines.gradient_line_ode(w, kind, ORIGIN, np.array([1.0, 0.2, 0.1, 0]),
                                            (0.0, 0.5), steps=4),
            lambda line: line.points.tolist())
    basis = np.vstack([ORIGIN, 0.5 * np.eye(4)])
    out["euclideaness"] = _attempt(lambda: degeneracy.euclideaness_check(
        w, basis, degeneracy.diagnostic_probes(4, count=8)).to_dict())
    out["degeneration"] = _attempt(
        lambda: degeneracy.degeneration_check(w, np.array([0.1, 0.05, 0, 0])).to_dict())
    p = products.Multivector(np.array([ORIGIN, y]))
    for name, q in (("timelike", [[0.1, 0, 0, 0], [0.7, 0.1, 0, 0]]),
                    ("null", [[0.3, 0, 0, 0], [0.8, 0.5, 0, 0]])):
        q = products.Multivector(np.array(q, dtype=float))
        out["collinear", name] = [products.is_collinear(w, kind, p, q) for kind in "nfp"]
        out["parallel", name] = [_attempt(lambda: products.is_parallel(w, kind, sense, p, q))
                                 for kind in "fp" for sense in ("parallel", "antiparallel")]
    x = np.array([0.1, 0.05, -0.02, 0.0])
    bundle = calculus.curvature_bundle(w, x)
    out["curvature"] = (bundle.defects, (bundle.f_tilde_coincident / 4.0 ** k).tolist(),
                        (bundle.f_coincident / 4.0 ** k).tolist(), bundle.riemann.tolist(),
                        bundle.riemann_tilde_f.tolist(), bundle.riemann_tilde_p.tolist())
    return out, calculus.coincidence_coefficients(w, x)


def _in_unit_scale(message, lam):
    """An error message with the squared length it names divided by lam, the
    one world value a message carries."""
    return re.sub(r"(squared length )(\S+);",
                  lambda m: f"{m[1]}{float(m[2]) / lam!r};", message)


@pytest.mark.parametrize("family", ["euclidean", "constant_a", "case1", "case2", "cubic_a"])
def test_results_are_free_of_the_world_unit(family):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want, want_cc = _outputs(scaled(family, 0), 0)
        for k in EXPONENTS:
            lam = 4.0 ** k
            got, got_cc = _outputs(scaled(family, k), k)
            for key in want:
                if isinstance(got[key], str):
                    got[key] = _in_unit_scale(got[key], lam)
                assert got[key] == want[key], (k, key)
            for name in WORLD_VALUED:
                assert np.array_equal(getattr(got_cc, name), lam * getattr(want_cc, name)), \
                    (k, name)
            for name in CONNECTIONS:
                assert np.array_equal(getattr(got_cc, name), getattr(want_cc, name)), (k, name)


@pytest.mark.parametrize("k", [-10, 0, 10])
def test_parallel_verdict_is_free_of_the_world_unit(k):
    # a residual of one degree in world values against lengths of that
    # degree: 2.5e-9 in the unit against 1e-9 |p| |q| = 2e-9 fails at every
    # scale
    w = world("euclidean", metric=(4.0 ** k * MINK).tolist())
    p = products.Multivector(np.array([ORIGIN, [1.0, 0, 0, 0]]))
    q = products.Multivector(np.array([ORIGIN, [2.0, 1e-4, 0, 0]]))
    assert products.parallelism_residual(w, "f", "parallel", p, q) / 4.0 ** k \
        == pytest.approx(2.5e-9, rel=1e-6)
    assert products.is_parallel(w, "f", "parallel", p, q) is False


def test_unit_is_the_power_of_two_below_the_metric():
    assert scaled("case1", 0).unit == 1.0
    assert scaled("case2", -30).unit == 4.0 ** -30
    half = world("euclidean", metric=(0.75 * MINK).tolist())
    assert half.unit == 0.5
    assert world_from_callable(lambda a, b: 0.0 * a[..., 0], 4).unit == 1.0
    assert unit_of(np.array([3.0, -0.75, 1.0, 0.0])).tolist() == [2.0, 0.5, 1.0, 0.5]


def test_unit_is_read_without_a_world_call():
    w = scaled("cubic_a", 4)
    calls = []
    evaluate = w._eval
    w._eval = lambda x, xp: calls.append(1) or evaluate(x, xp)
    assert (w.unit, w.polynomial_scale) == (4.0 ** 4, scaled("cubic_a", 0).polynomial_scale)
    assert calls == []
