"""Argument checks of the library that no other test reaches: each call
must end in its own error, with its own message."""

import json

import numpy as np
import pytest

from tgeom import (
    ComplexLengthError,
    DegeneracyReport,
    SingularMetricError,
    DimensionMismatchError,
    GeometryError,
    Multivector,
    OrderMismatchError,
    TubeSpec,
    WorldSpec,
    case1_waist,
    case2_asymptotic_radius,
    chain_parallel_residual,
    collinearity_residual,
    curve_deviation,
    eta_case1_closed,
    euclideaness_check,
    fd,
    first_order_factors,
    flat_curvature_defect,
    make_world,
    parallelism_residual,
    transport_matrix,
    tube_residual,
)
from tgeom.cli import run
from tgeom.degeneracy import FlatBasis
from tgeom.tubes import spacelike_unit_normal
from conftest import random_a3, world

ORIGIN = np.zeros(4)
T1 = np.array([1.0, 0.0, 0.0, 0.0])
X1 = np.array([0.0, 1.0, 0.0, 0.0])
SEGMENT = Multivector(np.stack([ORIGIN, T1]))  # timelike in the Minkowski world
TRIANGLE = Multivector(np.stack([ORIGIN, T1, 0.5 * T1 + 0.1 * X1]))
# a 3-d basis whose last point is the previous one moved 1e-7 along a new axis
NEAR_BASIS = Multivector(np.vstack([np.zeros(3), np.eye(3)[:2], [0.0, 1.0, 1e-7]]))


@pytest.mark.parametrize("call,error,message", [
    (lambda w: flat_curvature_defect(w, ORIGIN, T1, part="odd"),
     ValueError, "unknown world-function part"),
    (lambda w: transport_matrix(w, "h_x", ORIGIN, T1), ValueError, "unknown transport space"),
    (lambda w: euclideaness_check(w, np.stack([ORIGIN, T1]), np.empty((0, 4))),
     ValueError, "at least one probe"),
    (lambda w: DegeneracyReport(world=w.kind)["I_symmetry"], KeyError, "I_symmetry"),
    (lambda w: Multivector(ORIGIN[None, :]), OrderMismatchError, "at least two points"),
    (lambda w: Multivector(np.stack([ORIGIN, np.full(4, np.inf)])),
     DimensionMismatchError, "must be finite"),
    (lambda w: collinearity_residual(w, "n", SEGMENT, TRIANGLE),
     OrderMismatchError, "orders differ"),
    (lambda w: parallelism_residual(w, "f", "parallel", SEGMENT, TRIANGLE),
     OrderMismatchError, "orders differ"),
    (lambda w: parallelism_residual(w, "f", "across", SEGMENT, SEGMENT),
     ValueError, "unknown sense"),
    (lambda w: tube_residual(w, TubeSpec(SEGMENT), np.zeros(3)),
     DimensionMismatchError, "wrong dimension"),
    (lambda w: spacelike_unit_normal(w, T1 + X1), GeometryError, "null vector"),
    (lambda w: spacelike_unit_normal(world("euclidean", dim=1, metric=[1]), [1.0]),
     GeometryError, "no coordinate axis"),
    (lambda w: chain_parallel_residual(w, "n", ORIGIN, X1, 2.0 * X1),
     ComplexLengthError, "negative squared length"),
    (lambda w: FlatBasis.build(world("euclidean", dim=3, metric=[1, 1, 1]), NEAR_BASIS),
     SingularMetricError, "numerically singular"),
    (lambda w: first_order_factors(world("case1", b=[1, 0, 0, 0], alpha=0.2), "n",
                                   ORIGIN, T1, 2.0 * X1),
     ComplexLengthError, "nonnegative separation product"),
    (lambda w: case1_waist(0.0), ValueError, "g must be positive"),
    (lambda w: case2_asymptotic_radius(0.2, -1.0, 1.0),
     ZeroDivisionError, "screening denominator vanishes"),
], ids=["curvature-part", "transport-space", "no-probes", "report-name",
        "one-point", "non-finite-point", "collinearity-orders", "parallelism-orders",
        "parallelism-sense", "tube-probe-dimension", "normal-to-null", "normal-in-1d",
        "spacelike-chain", "badly-conditioned-basis", "neutral-eta-radicand",
        "waist-at-zero-g", "screening-pole"])
def test_library_check_raises(minkowski, call, error, message):
    with pytest.raises(error, match=message):
        call(minkowski)


@pytest.mark.parametrize("call,want", [
    # a zero-length polyline resamples to its first point
    (lambda w: curve_deviation(np.zeros((3, 4)), np.zeros((5, 4))), 0.0),
    # the default metric is Minkowski: b.xi xi^2 over the edges is -1 + 0 + 0
    (lambda w: eta_case1_closed(ORIGIN, T1, X1, 0.2, T1), -0.2),
    (repr, "WorldFunction(kind='euclidean', dim=4)"),
    (lambda w: fd.partial_tensors(w, ORIGIN, ORIGIN, []), {}),
], ids=["constant-curve", "eta-default-metric", "world-repr", "no-orders"])
def test_library_edge_value(minkowski, call, want):
    assert call(minkowski) == want


def test_cubic_spec_round_trips():
    a3 = random_a3(seed=3)
    spec = WorldSpec.from_dict({"kind": "cubic_a", "dim": 4, "metric": [1, -1, -1, -1],
                                "a3": a3.ravel().tolist()})
    doc = spec.to_dict()
    assert doc["a3"] == a3.ravel().tolist()
    again = WorldSpec.from_json(json.dumps(doc))
    assert again.a3.tobytes() == spec.a3.tobytes()
    x, xp = np.random.default_rng(3).normal(size=(2, 4))
    assert make_world(again)(x, xp) == make_world(spec)(x, xp)


def test_unwritable_out_leaves_no_temporary_file(tmp_path, capsys):
    # --out names a directory: the rename fails after the temporary file is
    # written, and the write removes it
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"kind": "euclidean", "dim": 4, "metric": [1, -1, -1, -1]}))
    assert run(["coefficients", "--world", str(path), "--at", "0.1,0,0,0",
                "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "input"
    assert not list(tmp_path.glob(".tgeom-*.tmp"))
