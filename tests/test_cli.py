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
    want = tgeom.euclideaness_check(w, basis, probes, seed=3)
    assert reports[6] == json.dumps(want.to_dict(), indent=2) + "\n"
    assert reports[2] == reports[4]
    assert reports[4] != reports[6]


def _scaled(doc, s):
    # the world function times s, to rounding where s is not a power of four:
    # metric, b and a3 times s, case1's alpha and case2's beta over s.  A
    # diagonal metric list must read +1/-1, so the scaled metric is a matrix
    metric = np.asarray(doc["metric"], dtype=float)
    metric = metric if metric.ndim == 2 else np.diag(metric)
    out = dict(doc, metric=(metric * s).tolist())
    for key in ("b", "a3"):
        if key in doc:
            out[key] = (np.asarray(doc[key]) * s).tolist()
    inverse = "alpha" if doc["kind"] == "case1" else "beta"
    if inverse in doc:
        out[inverse] = doc[inverse] / s
    return out


_FLAT_2D = {"kind": "euclidean", "dim": 2, "metric": [[1, 0], [0, -1]]}
_NONFLAT = dict(CUBIC, a3=random_a3(scale=0.3, seed=0).ravel().tolist())


@pytest.mark.parametrize("doc, s, want", [
    (_FLAT_2D, 1e-200, "pseudo_euclidean"),
    (_FLAT_2D, 1e-300, "pseudo_euclidean"),
    (EUCL, 1e200, "pseudo_euclidean"),
    (_NONFLAT, 1e-70, "not_euclidean"),
    (_NONFLAT, 1e-100, "not_euclidean"),
], ids=["flat-1e-200", "flat-1e-300", "flat-4d-1e200", "nonflat-1e-70", "nonflat-1e-100"])
def test_check_euclideaness_at_any_scale(tmp_path, world_file, doc, s, want):
    # every residual is read in the basis unit: a basis Gram determinant of
    # 1e-401 or 1e800 neither underflows nor overflows, and a non-flat world
    # scaled small still fails where absolute floors of 1 would pass it
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["check", "euclideaness", "--world", world_file(_scaled(doc, s)),
                    "--probes", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema("degeneracy_report.json"))
    assert doc["summary"]["classification"] == want


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


@pytest.mark.parametrize("doc,scale", [(dict(CASE1, alpha=0.2), 1e-7),
                                       (dict(CASE1, alpha=0.2), 1e-8), (EUCL, 1e-13),
                                       (EUCL, 1e-20), (dict(CASE1, alpha=0.2), 1e-100)],
                         ids=["case1-1e-7", "case1-1e-8", "euclidean-1e-13",
                              "euclidean-1e-20", "case1-1e-100"])
def test_tube_section_on_small_worlds(tmp_path, world_file, capsys, doc, scale):
    # a small world's tube residuals are read in its unit, not against the
    # round-off floors of a unit-scale world: it has the unit world's root
    # counts, with an empty stderr and no numpy warning
    def counts(s):
        out = tmp_path / "sec.csv"
        code = run(["tube-section", "--world", world_file(_scaled(doc, s)), "--y", "1,0,0,0",
                    "--tau-min", "-1", "--tau-max", "2", "--tau-steps", "13", "--out", str(out)])
        return code, [line.split(",")[-1] for line in out.read_text().splitlines()[1:]]

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = counts(1.0)
        capsys.readouterr()
        got = counts(scale)
    assert capsys.readouterr().err == ""
    assert got == want and got[0] == 0 and len(got[1]) == 13


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


def test_huge_metric_runs_without_warning(tmp_path, world_file, monkeypatch):
    # det overflows at 1e200 entries; the condition number is 1
    big = world_file({"kind": "euclidean", "dim": 4,
                      "metric": (1e200 * np.diag([1.0, -1.0, -1.0, -1.0])).tolist()})
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    proc = run_module(["coefficients", "--world", big, "--at", "0.1,0,0,0",
                       "--out", str(tmp_path / "c.json")])
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("argv", [["coefficients", "--at", "0.1,0"],
                                  ["curvature", "--at", "0.1,0"],
                                  ["check", "degeneration"]])
def test_ill_conditioned_metric_is_a_world_spec_error(tmp_path, world_file, monkeypatch,
                                                      argv):
    # determinant 1, condition number 1e400: every subcommand rejects it at load
    ill = world_file({"kind": "euclidean", "dim": 2, "metric": [[1e200, 0], [0, 1e-200]]})
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    proc = run_module([*argv, "--world", ill, "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert [json.loads(line) for line in proc.stderr.splitlines()] == [
        {"error": "world-spec", "detail": "metric is numerically singular"}]


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


_NEWTON_KEYS = {"residual_norm", "iterations", "jacobians", "backtracks", "stalled"}
_CURVED = dict(CUBIC, a3=random_a3(scale=0.3, seed=5).ravel().tolist())


def _solver_failure(argv):
    # exit 2 with one schema-valid solver error line on stderr
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(argv)
    lines = stderr.getvalue().splitlines()
    assert code == 2 and len(lines) == 1, (code, lines)
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "solver"
    return err


def test_exit_code_gradient_line_singular_jacobian(tmp_path, monkeypatch):
    # w(p, q) = q0 - p0 has no second derivative, so the gradient line's
    # Jacobian is zero; its first sample's start is no root
    time_world = tgeom.world_from_callable(lambda p, q: q[..., 0] - p[..., 0], 4)
    monkeypatch.setattr(tgeom.cli, "_load_world", lambda path: time_world)
    err = _solver_failure(["gradient-line", "--world", "time", "--kind", "f",
                           "--from", "0,0,0,0", "--to", "1,0,0,0", "--steps", "4",
                           "--out", str(tmp_path / "x.csv")])
    assert err["detail"] == "singular Jacobian on gradient line"
    assert set(err["extra"]) == _NEWTON_KEYS | {"parameter"}
    assert err["extra"]["parameter"] == 0.0 and err["extra"]["iterations"] == 0
    assert err["extra"]["stalled"] is False


def _curved_chain(tmp_path, world_file):
    # broken-tube argv for a 3-step kind-f chain on _CURVED from a seed of
    # kind length 0.1
    v = np.array([1.0, 0.25, -0.15, 0.1])
    p1 = tgeom.advance_seed(tgeom.make_world(tgeom.WorldSpec.from_dict(_CURVED)), "f",
                            np.zeros(4), v, 0.1)
    return ["broken-tube", "--world", world_file(_CURVED), "--kind", "f", "--mu", "0.1",
            "--steps", "3", "--seed-from", "0,0,0,0",
            "--seed-to", ",".join(repr(float(c)) for c in p1), "--out", str(tmp_path / "x.csv")]


def test_exit_code_chain_singular_jacobian(tmp_path, world_file, monkeypatch):
    # a step system whose Jacobian is singular where the step starts
    step_system = tgeom.tubes._step_system

    def singular(*args):
        residual, jacobian, *rest = step_system(*args)
        return residual, lambda z: np.zeros((len(z), len(z))), *rest

    monkeypatch.setattr(tgeom.tubes, "_step_system", singular)
    err = _solver_failure(_curved_chain(tmp_path, world_file))
    assert err["detail"] == "singular Jacobian in chain continuation"
    assert set(err["extra"]) == _NEWTON_KEYS | {"step"}
    assert err["extra"]["step"] == 0 and err["extra"]["iterations"] == 0
    assert err["extra"]["stalled"] is False


def test_exit_code_gradient_line_budget(tmp_path, world_file, monkeypatch):
    # the first two samples converge; from the third on Newton may take no
    # step, so the secant start fails, and so does its retry from the chord
    newton_module = sys.modules["tgeom.newton"]
    solve, calls = tgeom.lines.newton, []

    def third_without_steps(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            monkeypatch.setattr(newton_module, "MAX_STEPS", 0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(tgeom.lines, "newton", third_without_steps)
    err = _solver_failure(["gradient-line", "--world", world_file(_CURVED), "--kind", "f",
                           "--from", "0,0,0,0", "--to", "1,0.3,-0.2,0.1", "--steps", "8",
                           "--out", str(tmp_path / "x.csv")])
    norm = err["extra"]["residual_norm"]
    assert err["detail"] == f"gradient line solve failed at parameter {2 / 7} (|r| = {norm:.3e})"
    assert set(err["extra"]) == _NEWTON_KEYS | {"parameter", "chord_retry"}
    assert err["extra"]["parameter"] == 2 / 7 and err["extra"]["chord_retry"] is True
    assert err["extra"]["iterations"] == 0 and norm > 0.0
    assert len(calls) == 4  # the secant start and the chord retry


def test_exit_code_chain_budget(tmp_path, world_file, monkeypatch):
    # a chain step that Newton may not move from its straight start
    argv = _curved_chain(tmp_path, world_file)
    monkeypatch.setattr(sys.modules["tgeom.newton"], "MAX_STEPS", 0)
    err = _solver_failure(argv)
    norm = err["extra"]["residual_norm"]
    assert err["detail"] == f"chain continuation did not converge (|r| = {norm:.3e})"
    assert set(err["extra"]) == _NEWTON_KEYS | {"step"}
    assert err["extra"]["step"] == 0 and err["extra"]["iterations"] == 0
    assert err["extra"]["stalled"] is False and norm > 1e-10 * (1.0 + 0.1**2)


def test_exit_code_tube_polish(tmp_path, world_file, monkeypatch):
    # a bracket solver that stops at each bracket's midpoint leaves roots
    # that one polishing Newton step cannot bring within tolerance
    def midpoints(f, xa, xb, fa, fb, xtol, rtol):
        x = (np.asarray(xa) + np.asarray(xb)) / 2
        return x, f(np.arange(len(x)), x)

    monkeypatch.setattr(tgeom.tubes, "_brent", midpoints)
    case2 = {"kind": "case2", "dim": 4, "metric": [1, -1, -1, -1],
             "b": [1, 0, 0, 0], "alpha": 0.2, "beta": 1.0}
    err = _solver_failure(["tube-section", "--world", world_file(case2), "--y", "1,0,0,0",
                           "--tau-min", "0.5", "--tau-max", "0.5", "--tau-steps", "1",
                           "--out", str(tmp_path / "x.csv")])
    assert err["detail"] == "tube root polish failed to meet tolerance"
    extra = err["extra"]
    assert set(extra) == {"tau", "radius", "residual", "bound"}
    assert extra["tau"] == 0.5 and extra["radius"] > 0.0
    assert abs(extra["residual"]) > extra["bound"] > 0.0
    assert not (tmp_path / "x.csv").exists()


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


@pytest.mark.parametrize("command", [["coefficients"], ["curvature"], ["check", "degeneration"]],
                         ids=["coefficients", "curvature", "check-degeneration"])
@pytest.mark.parametrize("doc", [{**CUBIC, "a3": [1e308] * 64}, {**CASE1, "alpha": 1e200}],
                         ids=["cubic-huge-a3", "case1-huge-alpha"])
def test_extreme_coefficients_meet_error_contract(tmp_path, world_file, command, doc):
    # coefficients near the float range: an input or solver error, one JSON
    # line on stderr and no numpy warning, from every coincidence command
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(command + ["--world", world_file(doc), "--at", "0.1,0,0,0",
                              "--out", str(tmp_path / "x.json")])
    assert code in (1, 2)
    assert not caught, [str(w.message) for w in caught]
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1
    jsonschema.validate(json.loads(lines[0]), schema("error.json"))


def test_degeneration_gradient_scale_overflow_meets_error_contract(tmp_path, world_file):
    # a world scaled near the float range passes the coincidence metric's
    # conditioning, but the norm of its antisymmetric coincidence gradient,
    # about 1e160, overflows: a solver error, not a numpy warning
    doc = {"kind": "constant_a", "dim": 4, "b": [1e160, 0, 0, 0],
           "metric": (np.diag([1.0, -1.0, -1.0, -1.0]) * 1e160).tolist()}
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(["check", "degeneration", "--world", world_file(doc), "--at", "0.1,0,0,0",
                    "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert not caught, [str(w.message) for w in caught]
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    jsonschema.validate(error, schema("error.json"))
    assert error["detail"] == "neutral-gradient scale overflows at this anchor"


def test_seed_mismatch_detail_reads_plain_floats(tmp_path, world_file, capsys):
    # the seed's kind length is about 0.09992, not mu: the detail prints
    # both as plain floats, not as numpy scalar reprs
    code = run(["broken-tube", "--world", world_file({**CUBIC, "a3": [0.05] * 64}),
                "--kind", "f", "--mu", "0.1", "--steps", "1", "--seed-from", "0,0,0,0",
                "--seed-to", "0.1,0,0,0", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == "geometry"
    assert "np.float64" not in err["detail"]
    assert err["detail"].startswith("seed segment kind length 0.0999")
    assert err["detail"].endswith("does not match mu=0.1")


def _assert_error_contract(argv):
    """Run argv in process: it must exit 0/1/2 with no traceback and no
    numpy warning (which a standalone run would print to stderr), every
    stderr line must be the documented JSON, and stderr is empty exactly on
    success."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(argv)
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    for line in stderr.getvalue().splitlines():
        jsonschema.validate(json.loads(line), schema("error.json"))
    assert (code == 0) == (stderr.getvalue() == "")


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
    # any --at meets the error contract
    tmp = tmp_path_factory.mktemp("fuzz")
    world = tmp / "world.json"
    world.write_text(json.dumps(doc))
    _assert_error_contract(command + ["--world", str(world), "--at", ",".join(at),
                                      "--out", str(tmp / "x.json")])


_FAMILIES = [EUCL, CASE1, CUBIC,
             {"kind": "constant_a", "dim": 4, "metric": [1, -1, -1, -1], "b": [0.3, 0.1, 0, 0]},
             {"kind": "case2", "dim": 4, "metric": [1, -1, -1, -1],
              "b": [1, 0, 0, 0], "alpha": 0.2, "beta": 1.0}]
_SPEC_KEYS = ["kind", "dim", "metric", "b", "alpha", "beta", "a3"]
# wrong types (bools, strings, nulls), NaN, inf and extreme numbers
_SPEC_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), 1e308, -1e308, 1e-320, 0.0, 1.0, -1.0, 2**63]))
# shapes: flat, nested and ragged arrays, and objects
_SPEC_VALUES = st.one_of(
    _SPEC_SCALARS,
    st.lists(_SPEC_SCALARS, max_size=6),
    st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5), max_size=5),
    st.lists(st.sampled_from([1.0, -1.0, 0.5]), min_size=60, max_size=68),
    st.recursive(_SPEC_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(_SPEC_KEYS), inner,
                                                     max_size=2)), max_leaves=12))


def _with_entry(doc, key, index, value):
    """doc with one entry of its array key (its flattened index, modulo the
    size) set to value, or key added as value where doc lacks it."""
    doc = json.loads(json.dumps(doc))
    if key not in doc:
        return {**doc, key: value}
    flat = np.asarray(doc[key], dtype=float).ravel().tolist()
    flat[index % len(flat)] = value
    doc[key] = np.reshape(np.asarray(flat, dtype=object), np.shape(doc[key])).tolist()
    return doc


_FAMILY = st.sampled_from(_FAMILIES)
# a family document with keys set to such values (a family key it lacks is
# a forbidden one) and keys removed; one with a single bad array entry; or
# a document that is no object
_SPEC_DOCS = st.one_of(
    st.builds(lambda doc, changed, removed: {**{k: v for k, v in doc.items() if k not in removed},
                                             **changed},
              _FAMILY, st.dictionaries(st.sampled_from(_SPEC_KEYS), _SPEC_VALUES, max_size=3),
              st.sets(st.sampled_from(_SPEC_KEYS), max_size=2)),
    st.builds(_with_entry, _FAMILY, st.sampled_from(["metric", "b", "a3"]),
              st.integers(0, 63), _SPEC_SCALARS),
    st.sampled_from([[], [EUCL], "euclidean", 4, None, True]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=_SPEC_DOCS)
def test_fuzz_world_spec_meets_error_contract(tmp_path_factory, doc):
    # any world-spec document meets the error contract
    tmp = tmp_path_factory.mktemp("spec")
    world = tmp / "world.json"
    world.write_text(json.dumps(doc))  # NaN and inf as the NaN and Infinity tokens
    _assert_error_contract(["coefficients", "--world", str(world), "--at", "0.1,0,0,0",
                            "--out", str(tmp / "c.json")])


_BROKEN = ["broken-tube", "--world", "EUCL", "--seed-from", "0,0,0,0",
           "--seed-to", "0.5,0,0,0"]
_SECTION = ["tube-section", "--world", "CASE1", "--y", "1,0,0,0", "--tau-steps", "3"]
_GRADIENT = ["gradient-line", "--world", "CASE1", "--from", "0,0,0,0", "--to", "1,0.3,-0.2,0.1"]


@pytest.mark.parametrize("argv", [
    _BROKEN + ["--mu", "0.5", "--steps", "0"],
    _BROKEN + ["--mu", "0.5", "--steps", "-3"],
    _BROKEN + ["--mu", "nan", "--steps", "2"],
    _BROKEN + ["--mu", "inf", "--steps", "2"],
    _BROKEN + ["--mu", "0", "--steps", "2"],
    _SECTION + ["--tau-min", "nan", "--tau-max", "1"],
    _SECTION + ["--tau-min", "0", "--tau-max", "inf"],
    _SECTION + ["--tau-min", "-1e308", "--tau-max", "1e308"],
    ["check", "euclideaness", "--world", "CASE1", "--seed", "-1"],
    ["check", "euclideaness", "--world", "CASE1", "--probes", "0"],
    ["check", "euclideaness", "--world", "CASE1", "--probes", "-3"],
    _SECTION[:-1] + [str(10**15), "--tau-min", "0", "--tau-max", "1"],
    _SECTION[:-1] + [str(10**20), "--tau-min", "0", "--tau-max", "1"],
    _GRADIENT + ["--steps", str(10**15)],
    _GRADIENT + ["--steps", str(10**20)],
    ["check", "euclideaness", "--world", "CASE1", "--probes", str(10**15)],
    ["check", "euclideaness", "--world", "CASE1", "--probes", str(10**20)],
    _BROKEN + ["--mu", "0.5", "--steps", str(10**15)],
    ["check", "euclideaness", "--world", "CASE1", "--probes", str(2**58)],
    _GRADIENT + ["--steps", str(2**62)],
    _GRADIENT + ["--method", "ode", "--steps", str(2**62)],
    _SECTION[:-1] + [str(2**61), "--tau-min", "0", "--tau-max", "1"],
    _GRADIENT + ["--steps", str(2**61)],
    _BROKEN + ["--mu", "0.5", "--steps", str(2**61)],
    ["check", "euclideaness", "--world", "CASE1", "--probes", str(2**61)],
    ["check", "degeneration", "--world", "CASE1", "--probes", "3"],
    ["check", "euclideaness", "--world", "CASE1", "--at", "0,0,0,0"],
], ids=["steps-0", "steps-negative", "mu-nan", "mu-inf", "mu-0",
        "tau-min-nan", "tau-max-inf", "tau-span-overflow", "seed-negative", "probes-0",
        "probes-negative",
        "tau-steps-1e15", "tau-steps-1e20", "line-steps-1e15", "line-steps-1e20",
        "probes-1e15", "probes-1e20", "chain-steps-1e15", "probes-2e58",
        "line-steps-2e62", "ode-steps-2e62", "tau-steps-2e61", "line-steps-2e61",
        "chain-steps-2e61", "probes-2e61", "degeneration-probes", "euclideaness-at"])
def test_numeric_arguments_meet_error_contract(tmp_path, world_file, argv):
    # an out-of-range number, or an option of the other check report, is an
    # input error: one JSON line, no warning.
    # numpy rejects a count whose array has more bytes than it can address;
    # the 10**15 counts ask for more than a 47-bit address space, so their
    # first array fails at once, allocating nothing
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


@pytest.mark.parametrize("tau", ["1e20", "1e100", "1e300", "1e308", "-1e308"])
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


@pytest.mark.parametrize("content,error", [(b"\xff\xfe{}", "input"),
                                           (b"[" * 200_000, "world-spec")],
                         ids=["not-utf8", "nested-too-deeply"])
def test_unreadable_world_file_is_one_error_line(tmp_path, capsys, content, error):
    # a world file that is not UTF-8, or whose JSON nests deeper than the
    # parser can follow, is one JSON error line, not a traceback
    world = tmp_path / "world.json"
    world.write_bytes(content)
    assert run(["check", "degeneration", "--world", str(world),
                "--out", str(tmp_path / "x.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    jsonschema.validate(err, schema("error.json"))
    assert err["error"] == error


def test_library_value_error_is_an_input_line(tmp_path, world_file, capsys, monkeypatch):
    # the library's argument checks reach stderr as input errors, whatever
    # the command
    def reject(*args, **kwargs):
        raise ValueError("rejected by the library")

    monkeypatch.setattr("tgeom.tubes.build_broken_tube", reject)
    assert run(["broken-tube", "--world", world_file(EUCL), "--mu", "0.5", "--steps", "2",
                "--seed-from", "0,0,0,0", "--seed-to", "0.5,0,0,0",
                "--out", str(tmp_path / "x.csv")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "input", "detail": "rejected by the library"}]


def test_linear_algebra_error_is_a_solver_line(tmp_path, world_file, capsys, monkeypatch):
    # a LinAlgError is a ValueError to Python, but a failed solve, not an
    # argument check
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("tgeom.calculus.coincidence_coefficients", singular)
    assert run(["coefficients", "--world", world_file(EUCL), "--at", "0,0,0,0",
                "--out", str(tmp_path / "x.json")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "solver", "detail": "Singular matrix"}]


@pytest.mark.parametrize("argv,option,value", [
    (["tube-section", "--world", "CASE1", "--tau-min", "0", "--tau-max", "0.5",
      "--tau-steps", "2"], "--y", "-1,0,0,0"),
    (["tube-section", "--world", "CASE1", "--y", "1,0,0,0", "--tau-max", "0.5",
      "--tau-steps", "2"], "--tau-min", "-1e-3"),
    (["gradient-line", "--world", "EUCL", "--to", "0.5,0.1,0,0", "--steps", "3"],
     "--from", "-0.5,0,0,0"),
    (["gradient-line", "--world", "EUCL", "--from", "0,0,0,0", "--steps", "3"],
     "--to", "-.5,-0.1,0,0"),
    (["broken-tube", "--world", "EUCL", "--mu", "0.5", "--steps", "2",
      "--seed-to", "0,0,0,0"], "--seed-from", "-0.5,0,0,0"),
    (["broken-tube", "--world", "EUCL", "--mu", "0.5", "--steps", "2",
      "--seed-from", "0,0,0,0"], "--seed-to", "-0.5,0,0,0"),
    (["check", "degeneration", "--world", "EUCL"], "--at", "-0.5,0.25,0,0"),
    (["coefficients", "--world", "CASE1"], "--at", "-0.5,0,0,0"),
    (["curvature", "--world", "EUCL"], "--at", "-0.5,0,0,0"),
], ids=["y", "tau-min", "from", "to", "seed-from", "seed-to", "check-at",
        "coefficients-at", "curvature-at"])
def test_values_may_begin_with_minus(tmp_path, world_file, argv, option, value):
    # a value that begins with "-" and a digit is a value, not an option:
    # the same bytes as the --option=value spelling
    files = {"EUCL": world_file(EUCL, "eucl.json"), "CASE1": world_file(CASE1, "case1.json")}
    argv = [files.get(arg, arg) for arg in argv]
    written = []
    for spelling in ([option, value], [f"{option}={value}"]):
        out = tmp_path / f"{len(written)}.out"
        assert run(argv + spelling + ["--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


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
