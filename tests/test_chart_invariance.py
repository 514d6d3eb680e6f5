"""Chart-change invariance: what the solvers build does not depend on the chart.

For an affine chart map phi(x) = L x + s c, the world w'(a, b) = w(phi(a),
phi(b)) is the world w read in other coordinates.  A gradient line, a chain
and its seed on w' are those on w mapped back by phi^-1, and every verdict
is the same.  That gives cubic_a, which has no closed-form line or chain, an
oracle.  Both sides are world_from_callable worlds, so both take the same fd
rule.  What is left is round-off and fd truncation at the other chart's
anchors and steps, pinned to budgets about three times the largest
difference measured on these inputs (line 1.1e-13, chain 7.3e-14, seed
1.1e-14, Euclideaness residuals, all below 1, 2.2e-15).
"""

import numpy as np
import pytest

from tgeom import (
    advance_seed,
    build_broken_tube,
    degeneration_check,
    euclideaness_check,
    gradient_line_implicit,
    world_from_callable,
)
from tgeom.degeneracy import diagnostic_probes
from conftest import random_a3, world

RAPIDITY = 0.3
BOOST = np.eye(4)
BOOST[0, 0] = BOOST[1, 1] = np.cosh(RAPIDITY)
BOOST[0, 1] = BOOST[1, 0] = np.sinh(RAPIDITY)
SHEAR = np.eye(4)
SHEAR[2, 0], SHEAR[3, 1] = 0.2, -0.1
SHIFT = np.array([1.0, -0.5, 0.25, 0.1])

XA = np.zeros(4)
XB = np.array([1.0, 0.3, -0.2, 0.1])
GRID = np.linspace(0.0, 1.0, 13)
V = np.array([1.0, 0.25, -0.15, 0.1])
V = V / np.sqrt(V @ np.diag([1.0, -1.0, -1.0, -1.0]) @ V)
MU, STEPS = 0.1, 4
BASIS = np.vstack([np.zeros(4), 0.3 * np.eye(4) + 0.05])
PROBES = diagnostic_probes(4, count=8)
ANCHOR = np.array([0.1, 0.05, 0.0, 0.0])

LINE_BUDGET = 3e-13
CHAIN_BUDGET = 3e-13
SEED_BUDGET = 5e-14
RESIDUAL_BUDGET = 1e-14

CHARTS = [(linear, s) for linear in ("boost", "shear") for s in (0.0, 100.0)]


@pytest.fixture(scope="module")
def base():
    return world("cubic_a", a3=random_a3(scale=0.05, seed=3).ravel().tolist())


@pytest.fixture(scope="module")
def identity(base):
    """The reference: the world itself behind world_from_callable, in its own chart."""
    w = world_from_callable(base, 4)
    seed = advance_seed(w, "f", XA, V, MU)
    return {
        "line": gradient_line_implicit(w, "f", XA, XB, GRID),
        "seed": seed,
        "chain": build_broken_tube(w, "f", XA, seed, MU, STEPS),
        "euclideaness": euclideaness_check(w, BASIS, PROBES).to_dict(),
        "degeneration": degeneration_check(w, ANCHOR).to_dict(),
    }


def _chart(base, linear, s):
    """(w', phi, phi^-1, L^-1) for phi(x) = L x + s SHIFT."""
    m = {"boost": BOOST, "shear": SHEAR}[linear]
    m_inv = np.linalg.inv(m)

    def phi(x):
        return x @ m.T + s * SHIFT

    def phi_inv(x):
        return (x - s * SHIFT) @ m_inv.T

    return world_from_callable(lambda a, b: base(phi(a), phi(b)), 4), phi, phi_inv, m_inv


@pytest.mark.parametrize("linear, s", CHARTS)
def test_gradient_line_is_chart_free(base, identity, linear, s):
    w, phi, phi_inv, _ = _chart(base, linear, s)
    line = gradient_line_implicit(w, "f", phi_inv(XA), phi_inv(XB), GRID)
    want = identity["line"]
    assert line.converged.all() and line.warnings == want.warnings == []
    assert np.max(np.abs(phi(line.points) - want.points)) <= LINE_BUDGET


@pytest.mark.parametrize("linear, s", CHARTS)
def test_chain_is_chart_free(base, identity, linear, s):
    # the seed's direction is a tangent vector: it maps by L^-1
    w, phi, phi_inv, m_inv = _chart(base, linear, s)
    seed = advance_seed(w, "f", phi_inv(XA), m_inv @ V, MU)
    assert np.max(np.abs(phi(seed) - identity["seed"])) <= SEED_BUDGET
    chain = build_broken_tube(w, "f", phi_inv(XA), seed, MU, STEPS)
    want = identity["chain"]
    assert np.max(np.abs(phi(chain.vertices) - want.vertices)) <= CHAIN_BUDGET
    assert chain.multiplicity_flags == want.multiplicity_flags


@pytest.mark.parametrize("linear, s", CHARTS)
def test_euclideaness_is_chart_free(base, identity, linear, s):
    # every residual is read from world values between the mapped points
    w, _, phi_inv, _ = _chart(base, linear, s)
    got = euclideaness_check(w, phi_inv(BASIS), phi_inv(PROBES)).to_dict()
    want = identity["euclideaness"]
    assert got["summary"] == want["summary"] and got["notes"] == want["notes"]
    assert got["summary"]["classification"] == "not_euclidean"
    for check, ref in zip(got["checks"], want["checks"], strict=True):
        assert (check["name"], check["verdict"]) == (ref["name"], ref["verdict"])
        assert abs(check["residual"] - ref["residual"]) <= RESIDUAL_BUDGET * max(1.0, ref["residual"])


@pytest.mark.parametrize("linear, s", CHARTS)
def test_degeneration_verdict_is_chart_free(base, identity, linear, s):
    # the check probes along the chart's own axes at a separation that grows
    # with the anchor's coordinates, so only its verdicts are chart-free
    w, _, phi_inv, _ = _chart(base, linear, s)
    got = degeneration_check(w, phi_inv(ANCHOR)).to_dict()
    want = identity["degeneration"]
    assert got["summary"] == want["summary"]
    assert [(c["name"], c["verdict"]) for c in got["checks"]] == \
        [(c["name"], c["verdict"]) for c in want["checks"]]
