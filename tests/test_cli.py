import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tgeom
from tgeom import case1_radii
from tgeom.cli import run
from conftest import random_a3

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "schema")


def schema(name):
    with open(os.path.join(DOCS, name)) as handle:
        return json.load(handle)


@pytest.fixture()
def world_file(tmp_path):
    def write(doc, name="world.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


CASE1 = {"kind": "case1", "dim": 4, "metric": [1, -1, -1, -1],
         "b": [1, 0, 0, 0], "alpha": 0.1}
EUCL = {"kind": "euclidean", "dim": 4, "metric": [1, -1, -1, -1]}
CUBIC = {"kind": "cubic_a", "dim": 4, "metric": [1, -1, -1, -1],
         "a3": [0.0] * 64}


def test_world_schema_accepts_examples(world_file):
    validator = jsonschema.Draft7Validator(schema("world.json"))
    for doc in (CASE1, EUCL, CUBIC,
                {"kind": "case2", "dim": 2, "metric": [1, -1],
                 "b": [1, 0], "alpha": 0.1, "beta": 2.0}):
        assert not list(validator.iter_errors(doc))


def test_tube_section_golden(tmp_path, world_file, capsys):
    out = tmp_path / "sec.csv"
    code = run(["tube-section", "--world", world_file(CASE1), "--y", "1,0,0,0",
                "--kind", "n", "--tau-min", "0.5", "--tau-max", "0.5",
                "--tau-steps", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,r_inner,r_outer,n_roots"
    tau, r_inner, r_outer, n_roots = lines[1].split(",")
    assert n_roots == "2"
    want = case1_radii(0.5, 0.1)
    assert float(r_inner) == pytest.approx(want[0], rel=1e-6)
    assert float(r_outer) == pytest.approx(want[1], rel=1e-6)
    assert float(r_inner) == pytest.approx(0.0755712, abs=1.5e-7)
    assert float(r_outer) == pytest.approx(9.9244289, abs=1.5e-7)


def test_tube_section_deterministic(tmp_path, world_file):
    args = ["tube-section", "--world", world_file(CASE1), "--y", "1,0,0,0",
            "--kind", "n", "--tau-min", "-0.5", "--tau-max", "1.5",
            "--tau-steps", "9"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tube_section_threads_match(tmp_path, world_file):
    args = ["tube-section", "--world", world_file(CASE1), "--y", "1,0,0,0",
            "--kind", "n", "--tau-min", "0.1", "--tau-max", "0.9",
            "--tau-steps", "5"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(["--threads", "4"] + args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gradient_line_straight(tmp_path, world_file):
    out = tmp_path / "traj.csv"
    code = run(["gradient-line", "--world", world_file(EUCL), "--kind", "f",
                "--from", "0,0,0,0", "--to", "1,0.3,-0.2,0.1",
                "--steps", "9", "--method", "implicit", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,x0,x1,x2,x3,residual"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    taus = data[:, 0]
    chord = taus[:, None] * np.array([1, 0.3, -0.2, 0.1])
    assert np.max(np.abs(data[:, 1:5] - chord)) < 1e-10
    assert np.max(data[:, 5]) < 1e-10


def test_gradient_line_ode_method(tmp_path, world_file):
    out = tmp_path / "traj.csv"
    code = run(["gradient-line", "--world", world_file(CUBIC), "--kind", "n",
                "--from", "0,0,0,0", "--to", "1,0,0,0", "--steps", "8",
                "--method", "ode", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("tau,x0")


def test_broken_tube_csv(tmp_path, world_file):
    out = tmp_path / "chain.csv"
    code = run(["broken-tube", "--world", world_file(EUCL), "--kind", "f",
                "--mu", "0.5", "--steps", "3", "--seed-from", "0,0,0,0",
                "--seed-to", "0.5,0,0,0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("index,x0")
    assert len(lines) == 1 + 5  # seed pair + 3 new vertices
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(2.0, abs=1e-8)


def test_check_degeneration_report(tmp_path, world_file):
    out = tmp_path / "report.json"
    assert run(["check", "degeneration", "--world", world_file(EUCL),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema("degeneracy_report.json"))
    assert all(c["verdict"] == "pass" for c in doc["checks"])
    assert doc["summary"] == {"neutral": "degenerate", "future": "degenerate",
                              "past": "degenerate"}


def test_check_euclideaness_report(tmp_path, world_file):
    out = tmp_path / "report.json"
    assert run(["check", "euclideaness", "--world", world_file(CASE1),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema("degeneracy_report.json"))
    assert doc["summary"]["classification"] == "not_euclidean"


def test_check_euclideaness_probes(tmp_path, world_file):
    # --probes N runs the check on N diagnostic probes; 1 to 3 run 4
    path = world_file(CASE1)
    reports = {}
    for count in (2, 4, 6):
        out = tmp_path / f"probes{count}.json"
        assert run(["check", "euclideaness", "--world", path, "--probes", str(count),
                    "--seed", "3", "--out", str(out)]) == 0
        reports[count] = out.read_text()
    w = tgeom.make_world(tgeom.WorldSpec.from_json(json.dumps(CASE1)))
    basis = 0.5 * np.vstack([np.zeros(4), np.eye(4)])
    basis[:, 0] += 0.1 * np.arange(5)
    probes = tgeom.degeneracy.diagnostic_probes(4, 6, seed=3)
    want = tgeom.euclideaness_check(w, 4, basis, probes, seed=3)
    assert reports[6] == want.to_json() + "\n"
    assert reports[2] == reports[4]
    assert reports[4] != reports[6]


def test_coefficients_report(tmp_path, world_file):
    out = tmp_path / "coeffs.json"
    assert run(["coefficients", "--world", world_file(CASE1),
                "--at", "0.2,0,0,0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema("coefficients.json"))
    assert np.allclose(doc["a"], [1, 0, 0, 0], atol=1e-9)


def test_curvature_report(tmp_path, world_file):
    out = tmp_path / "curv.json"
    assert run(["curvature", "--world", world_file(CUBIC),
                "--at", "0,0,0,0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema("curvature.json"))
    assert len(doc["riemann"]) == 4**4
    assert max(abs(v) for v in doc["defects"].values()) < 5e-4


def test_exit_code_input_error(tmp_path, capsys):
    assert run(["tube-section", "--world", "/does/not/exist.json",
                "--y", "1,0,0,0", "--tau-min", "0", "--tau-max", "1",
                "--tau-steps", "2", "--out", str(tmp_path / "x.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "input"


def test_exit_code_bad_spec(tmp_path, world_file, capsys):
    bad = world_file({"kind": "bogus", "dim": 2, "metric": [1, 1]}, "bad.json")
    assert run(["check", "degeneration", "--world", bad,
                "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "world-spec"


@pytest.mark.parametrize("doc", [
    dict(CASE1, alpha=float("nan")),
    dict(CASE1, b=[1, float("inf"), 0, 0]),
    dict(CASE1, alpha="x"),
    dict(CASE1, metric=[1, "a", -1, -1]),
    {"kind": "euclidean", "dim": True, "metric": [1]},
], ids=["alpha-nan", "b-infinity", "alpha-string", "metric-string", "dim-true"])
@pytest.mark.parametrize("command", [["coefficients", "--at", "0,0,0,0"],
                                     ["check", "degeneration"]],
                         ids=["coefficients", "check"])
def test_exit_code_bad_spec_values(tmp_path, world_file, capsys, doc, command):
    # non-numeric, non-finite or bool entries are spec errors, not tracebacks
    bad = world_file(doc, "bad.json")
    assert run(command + ["--world", bad, "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "world-spec"


@pytest.mark.parametrize("doc,detail", [
    ({"kind": "euclidean", "dim": 2, "metric": [[1, 0, 0], [0, 1, 0]]}, "d x d matrix"),
    ({"kind": "euclidean", "dim": 2, "metric": [[1, 0.5], [0, 1]]}, "symmetric"),
    ({"kind": "constant_a", "dim": 2, "metric": [1, 1], "b": [1, 0, 0]}, "length dim"),
    ({"kind": "cubic_a", "dim": 2, "metric": [1, 1], "a3": [[0, 0], [0, 0]]}, "(d, d, d)"),
    ([1, 2], "JSON object"),
    ({"dim": 2, "metric": [1, 1]}, "missing key 'kind'"),
    ({"kind": "euclidean", "dim": 2}, "missing 'metric'"),
    ({"kind": "euclidean", "dim": 2, "metric": [[[1]]]}, "vector or a matrix"),
    ({"kind": "constant_a", "dim": 2, "metric": [1, 1], "b": [1, [0, 1]]}, "b must be numeric"),
], ids=["metric-2x3", "metric-nonsymmetric", "b-length", "a3-2d", "list", "no-kind",
        "no-metric", "metric-3d", "b-ragged"])
def test_exit_code_bad_spec_shapes(tmp_path, world_file, capsys, doc, detail):
    # a malformed spec document is one world-spec error line, exit 1
    bad = world_file(doc, "bad.json")
    assert run(["check", "degeneration", "--world", bad,
                "--out", str(tmp_path / "x.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "world-spec" and detail in err["detail"]


@pytest.mark.parametrize("argv,detail", [
    (["tube-section", "--world", "EUCL", "--y", "1,0,0,0", "--tau-min", "0",
      "--tau-max", "1", "--tau-steps", "0"], "--tau-steps"),
    (["gradient-line", "--world", "EUCL", "--from", "0,0,0,0", "--to", "1,0,0,0",
      "--steps", "1"], "--steps"),
    (["coefficients", "--world", "EUCL", "--at", "0,a,0,0"], "--at"),
], ids=["tau-steps-0", "steps-1", "at-not-a-number"])
def test_exit_code_bad_arguments(tmp_path, world_file, capsys, argv, detail):
    out = tmp_path / "x.out"
    argv = [world_file(EUCL) if a == "EUCL" else a for a in argv]
    assert run(argv + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "input" and detail in err["detail"]
    assert not out.exists()


def test_tube_section_empty_profile(tmp_path, world_file):
    # at alpha 0.66 the tube has a hole about its center for these taus (no
    # closed-form radius): each row keeps its tau, leaves both radii empty
    # and counts 0
    assert all(case1_radii(tau, 0.66) == [] for tau in (0.4, 0.5, 0.6))
    world = world_file(dict(CASE1, alpha=0.66))
    out = tmp_path / "sec.csv"
    assert run(["tube-section", "--world", world, "--y", "1,0,0,0", "--kind", "n",
                "--tau-min", "0.4", "--tau-max", "0.6", "--tau-steps", "3",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,r_inner,r_outer,n_roots"
    assert [line.split(",")[1:] for line in lines[1:]] == [["", "", "0"]] * 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.4, 0.5, 0.6]


def test_module_entry_point(tmp_path, world_file):
    # python -m tgeom: exit 0 and a silent stderr on a good command, exit 1
    # and one JSON error line on a bad spec
    out = tmp_path / "coeffs.json"
    proc = run_module(["coefficients", "--world", world_file(EUCL), "--at", "0,0,0,0",
                       "--out", str(out)])
    assert proc.returncode == 0 and proc.stderr == ""
    jsonschema.validate(json.loads(out.read_text()), schema("coefficients.json"))
    bad = world_file({"kind": "euclidean", "dim": 2}, "bad.json")
    proc = run_module(["coefficients", "--world", bad, "--at", "0,0", "--out", str(out)])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "world-spec"


def test_exit_code_unwritable_out(tmp_path, world_file, capsys):
    out = tmp_path / "missing" / "dir" / "x.json"
    assert run(["coefficients", "--world", world_file(CASE1), "--at", "0,0,0,0",
                "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "input"
    assert not out.parent.exists()


def test_exit_code_geometry_error(tmp_path, world_file, capsys):
    # spacelike generator: input-level geometry error
    assert run(["tube-section", "--world", world_file(CASE1), "--y", "0,1,0,0",
                "--tau-min", "0", "--tau-max", "1", "--tau-steps", "2",
                "--out", str(tmp_path / "x.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "geometry"


def run_module(argv):
    """Run `python -m tgeom argv` in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgeom.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, "-m", "tgeom"] + argv,
                          env=env, capture_output=True, text=True)


def test_exit_code_generator_on_pole(tmp_path, world_file):
    # y on the pole xi^2 = -1/beta of a case2 world: the separation is NaN,
    # not a positive number, and stderr carries the JSON error alone
    pole = world_file({"kind": "case2", "dim": 4, "metric": [1, -1, -1, -1],
                       "b": [1, 0, 0, 0], "alpha": 0.2, "beta": -1})
    proc = run_module(["tube-section", "--world", pole, "--y", "1,0,0,0",
                       "--tau-min", "0", "--tau-max", "1", "--tau-steps", "2",
                       "--out", str(tmp_path / "x.csv")])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    for line in lines:
        jsonschema.validate(json.loads(line), schema("error.json"))
    err = json.loads(lines[0])
    assert err["error"] == "geometry"
    assert "y must be timelike" in err["detail"]


@pytest.mark.parametrize("beta,seed_to", [(1, "0,1,0,0"), (-1, "1,0,0,0")],
                         ids=["nan", "infinite"])
@pytest.mark.parametrize("kind", ["f", "p", "n"])
def test_exit_code_chain_seed_on_pole(tmp_path, world_file, beta, seed_to, kind):
    # a seed segment onto a pole of a case2 world has a NaN or infinite kind
    # length: a geometry error, with the JSON error alone on stderr
    pole = world_file({"kind": "case2", "dim": 4, "metric": [1, -1, -1, -1],
                       "b": [1, 0, 0, 0], "alpha": 0.2, "beta": beta})
    proc = run_module(["broken-tube", "--world", pole, "--kind", kind, "--mu", "0.1",
                       "--steps", "2", "--seed-from", "0,0,0,0", "--seed-to", seed_to,
                       "--out", str(tmp_path / "x.csv")])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "geometry"
    assert "seed segment is not timelike" in err["detail"]


@pytest.mark.parametrize("command", [
    ["tube-section", "--y", "1,0,0,0", "--tau-min", "0", "--tau-max", "1", "--tau-steps", "2"],
    ["gradient-line", "--from", "0,0,0,0", "--to", "1,0,0,0"],
    ["broken-tube", "--mu", "0.5", "--steps", "1", "--seed-from", "0,0,0,0",
     "--seed-to", "0.5,0,0,0"],
], ids=["tube-section", "gradient-line", "broken-tube"])
def test_exit_code_unknown_kind(tmp_path, world_file, capsys, command):
    out = tmp_path / "x.csv"
    assert run(command + ["--world", world_file(EUCL), "--kind", "x", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "input"
    assert "--kind" in err["detail"]
    assert not out.exists()


def test_exit_code_solver_error(tmp_path, world_file, capsys):
    # future chain in a rough-antisymmetric world: the seed has no real kind
    # length, surfaced as a geometry error; a failing solve that exits 2 is
    # test_exit_code_solver_detail
    case1 = world_file(CASE1)
    code = run(["broken-tube", "--world", case1, "--kind", "f",
                "--mu", "0.3", "--steps", "1", "--seed-from", "0,0,0,0",
                "--seed-to", "0.3,0,0,0", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))


def test_exit_code_solver_detail(tmp_path, world_file, capsys):
    # the chain step after this seed finds no halving that lowers its residual
    world = world_file({"kind": "case1", "dim": 4, "metric": [1, -1, -1, -1],
                        "b": [0.3, 0.1, 0, 0], "alpha": 0.15})
    code = run(["broken-tube", "--world", world, "--kind", "f", "--mu", "0.1",
                "--steps", "3", "--seed-from", "0,0,0,0",
                "--seed-to=-0.015278012475692587,-0.0030556024951385176,"
                "-0.0015278012475692588,0.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "solver"
    assert err["detail"] == "chain continuation stalled (damping exhausted)"
    extra = err["extra"]
    assert extra["stalled"] is True
    assert extra["iterations"] >= 1 and extra["backtracks"] >= 40
    assert extra["residual_norm"] > 0.0 and 0 <= extra["step"] < 3


def test_exit_code_ode_step_budget(tmp_path, world_file, capsys, monkeypatch):
    # a gradient-line integrator that runs out of steps says where and how:
    # on this curved world the whole-span first trial is rejected, and the
    # budget runs out after the first accepted step
    monkeypatch.setattr(tgeom.lines, "_ODE_MAX_STEPS", 2)
    curved = dict(CUBIC, a3=random_a3(scale=0.03, seed=5).ravel().tolist())
    out = tmp_path / "traj.csv"
    code = run(["gradient-line", "--world", world_file(curved), "--kind", "f",
                "--from", "0,0,0,0", "--to", "1,0.3,-0.2,0.1", "--steps", "8",
                "--method", "ode", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "solver"
    assert set(err["extra"]) == {"parameter", "step", "error_norm", "steps"}
    assert err["extra"]["steps"] == 2 and 0 < err["extra"]["parameter"] < 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["coefficients", "--at", "1e300,0,0,0"],
    ["check", "degeneration", "--at", "1e300,0,0,0"],
    ["check", "degeneration", "--at", "0,0,0,5.643803094122365e+104"],
    ["curvature", "--at", "1e200,0,0,0"],
    ["gradient-line", "--from", "0,0,0,0", "--to", "1e300,0,0,0"],
], ids=["coefficients", "check", "check-scale", "curvature", "gradient-line"])
def test_exit_code_stencil_overflow(tmp_path, world_file, argv):
    # a stencil far out in the chart overflows: one JSON line, no warnings
    proc = run_module(argv + ["--world", world_file(EUCL), "--out", str(tmp_path / "x")])
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "solver"


@pytest.mark.parametrize("doc,start,end", [
    ({**CASE1, "alpha": 1e200}, "0,0,0,0", "0.1,0.1,0.1,0.1"),
    ({"kind": "cubic_a", "dim": 1, "metric": [1], "a3": [1e308]}, "0", "0.1"),
], ids=["case1-huge-alpha", "cubic-huge-a3"])
def test_exit_code_singular_initial_velocity(tmp_path, world_file, doc, start, end):
    # the ODE's initial-velocity system is singular: a geometry error, one
    # JSON line and no warning on stderr, no CSV
    out = tmp_path / "x.csv"
    proc = run_module(["gradient-line", "--world", world_file(doc), "--from", start,
                       "--to", end, "--steps", "3", "--method", "ode", "--out", str(out)])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "geometry" and "initial-velocity" in err["detail"]
    assert not out.exists()


_AT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e300", "-1e308", "1.7976931348623157e308",
                     "1e77", "1e-320", "0"]),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from([["coefficients"], ["check", "degeneration"], ["curvature"]]),
       doc=st.sampled_from([EUCL, CASE1, {"kind": "case2", "dim": 4, "metric": [1, -1, -1, -1],
                                          "b": [1, 0, 0, 0], "alpha": 0.2, "beta": 1.0}]),
       at=st.lists(_AT_VALUES, min_size=4, max_size=4))
def test_fuzz_at_meets_error_contract(tmp_path_factory, command, doc, at):
    # any --at ends in exit 0/1/2 with stderr that is the documented JSON
    # and no numpy warning (which a standalone run would print to stderr)
    tmp = tmp_path_factory.mktemp("fuzz")
    world = tmp / "world.json"
    world.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(command + ["--world", str(world), "--at", ",".join(at),
                              "--out", str(tmp / "x.json")])
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    for line in stderr.getvalue().splitlines():
        jsonschema.validate(json.loads(line), schema("error.json"))
    assert (code == 0) == (stderr.getvalue() == "")


_BROKEN = ["broken-tube", "--world", "EUCL", "--seed-from", "0,0,0,0",
           "--seed-to", "0.5,0,0,0"]
_SECTION = ["tube-section", "--world", "CASE1", "--y", "1,0,0,0", "--tau-steps", "3"]


@pytest.mark.parametrize("argv", [
    _BROKEN + ["--mu", "0.5", "--steps", "0"],
    _BROKEN + ["--mu", "0.5", "--steps", "-3"],
    _BROKEN + ["--mu", "nan", "--steps", "2"],
    _BROKEN + ["--mu", "inf", "--steps", "2"],
    _BROKEN + ["--mu", "0", "--steps", "2"],
    _SECTION + ["--tau-min", "nan", "--tau-max", "1"],
    _SECTION + ["--tau-min", "0", "--tau-max", "inf"],
    ["check", "euclideaness", "--world", "CASE1", "--seed", "-1"],
    ["check", "euclideaness", "--world", "CASE1", "--probes", "0"],
    ["check", "euclideaness", "--world", "CASE1", "--probes", "-3"],
], ids=["steps-0", "steps-negative", "mu-nan", "mu-inf", "mu-0",
        "tau-min-nan", "tau-max-inf", "seed-negative", "probes-0", "probes-negative"])
def test_numeric_arguments_meet_error_contract(tmp_path, world_file, argv):
    # an out-of-range number is an input error: one JSON line, no warning
    files = {"EUCL": world_file(EUCL, "eucl.json"), "CASE1": world_file(CASE1, "case1.json")}
    argv = [files.get(arg, arg) for arg in argv]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(argv + ["--out", str(tmp_path / "x")])
    assert code == 1
    assert not caught, [str(w.message) for w in caught]
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "input"


@pytest.mark.parametrize("tau", ["1e20", "1e100", "1e300"])
def test_tube_section_huge_tau_is_geometry_error(tmp_path, world_file, tau):
    # the residual is round-off or overflows on every probe: one JSON line
    # naming the tau, no warning, and no CSV of spurious roots
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(["tube-section", "--world", world_file(CASE1), "--y", "1,0,0,0",
                    "--tau-min", tau, "--tau-max", tau, "--tau-steps", "1",
                    "--out", str(tmp_path / "x")])
    assert code == 1
    assert not caught, [str(w.message) for w in caught]
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "geometry" and f"tau {float(tau)!r}" in err["detail"]
    assert not (tmp_path / "x").exists()


def test_gradient_line_warning_stream(tmp_path, world_file, capsys):
    # rough-antisymmetric world: small parameters carry a structured warning,
    # which also names the unconverged sample at 0.05, past the warned range
    out = tmp_path / "traj.csv"
    code = run(["gradient-line", "--world", world_file(CASE1), "--kind", "f",
                "--from", "0,0,0,0", "--to", "1,0,0,0", "--steps", "21",
                "--method", "implicit", "--out", str(out)])
    assert code == 0
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["warnings"][0]["code"] == "rough_antisymmetry_small_parameter"
    assert err["warnings"][0]["unconverged"] == [0.0, 0.05]


def test_bad_point_dimension(tmp_path, world_file, capsys):
    assert run(["coefficients", "--world", world_file(EUCL), "--at", "1,2",
                "--out", str(tmp_path / "x.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
