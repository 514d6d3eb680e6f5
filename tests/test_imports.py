"""What a start loads: a bare ``import tgeom`` loads no submodule and no
numpy, names resolve on first use, and each subcommand loads only the
modules it runs.  Each footprint is read from ``sys.modules`` in a fresh
interpreter, so no timer is involved."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import tgeom

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tgeom.__file__)))
MINKOWSKI = [1, -1, -1, -1]
WORLDS = {
    "euclidean": {"kind": "euclidean", "dim": 4, "metric": MINKOWSKI},
    "case1": {"kind": "case1", "dim": 4, "metric": MINKOWSKI,
              "b": [1, 0, 0, 0], "alpha": 0.2},
    "case2": {"kind": "case2", "dim": 4, "metric": MINKOWSKI,
              "b": [1, 0, 0, 0], "alpha": 0.2, "beta": 1.0},
}
BASE = {"tgeom", "tgeom.errors", "tgeom.worlds"}


def loaded(code, cwd=None):
    """The names in sys.modules after code runs in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    probe = code + "\nimport json as _json, sys as _sys\nprint(_json.dumps(sorted(_sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def package(modules):
    return {m for m in modules if m == "tgeom" or m.startswith("tgeom.")}


def test_bare_import_loads_no_submodule_and_no_numpy():
    modules = loaded("import tgeom")
    assert package(modules) == {"tgeom"}
    assert "numpy" not in modules


def test_world_names_load_only_worlds():
    assert package(loaded("from tgeom import WorldSpec, make_world")) == BASE


def test_submodule_resolves_without_an_import():
    modules = loaded("import tgeom\nassert callable(tgeom.lines.newton)")
    assert "tgeom.lines" in modules


TUBES = {"cli", "fd", "newton", "products", "tubes"}
LINES = {"cli", "fd", "newton", "calculus", "lines"}
CHECK = {"cli", "fd", "newton", "products", "degeneracy"}
CALCULUS = {"cli", "fd", "calculus"}
SECTION = ["--y", "1,0,0,0", "--kind", "n", "--tau-min", "-0.5", "--tau-max", "0.5",
           "--tau-steps", "3"]


# (subcommand and arguments, world, modules beyond BASE, whether
# numpy.polynomial loads: only the tube sampler's Chebyshev proxy, which
# runs on polynomial worlds, needs it)
@pytest.mark.parametrize("argv,world,modules,polynomial", [
    (["tube-section", *SECTION], "case1", TUBES, True),
    (["tube-section", *SECTION], "case2", TUBES, False),
    (["broken-tube", "--mu", "0.5", "--steps", "2", "--seed-from", "0,0,0,0",
      "--seed-to", "0.5,0,0,0"], "euclidean", TUBES, False),
    (["gradient-line", "--from", "0,0,0,0", "--to", "1,0.2,0,0", "--steps", "3"],
     "euclidean", LINES, False),
    (["check", "euclideaness", "--probes", "4"], "case1", CHECK, False),
    (["check", "degeneration"], "case1", CHECK, False),
    (["coefficients", "--at", "0.1,0,0,0"], "euclidean", CALCULUS, False),
    (["curvature", "--at", "0.1,0,0,0"], "euclidean", CALCULUS, False),
], ids=["tube-section-case1", "tube-section-case2", "broken-tube", "gradient-line",
        "check-euclideaness", "check-degeneration", "coefficients", "curvature"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, world, modules, polynomial):
    (tmp_path / "w.json").write_text(json.dumps(WORLDS[world]))
    argv = argv + ["--world", "w.json", "--out", "out"]
    after = loaded(f"from tgeom import cli\nassert cli.run({argv!r}) == 0", cwd=tmp_path)
    assert package(after) == BASE | {f"tgeom.{m}" for m in modules}
    assert ("numpy.polynomial" in after) == polynomial


def test_namespace_contract():
    for name in tgeom.__all__:
        value = getattr(tgeom, name)
        home = importlib.import_module(f"tgeom.{tgeom._HOME[name]}")
        assert value is getattr(home, name)
        # the table names the module that defines each class and function
        assert getattr(value, "__module__", home.__name__) == home.__name__
    assert set(tgeom.__all__) <= set(dir(tgeom))
    namespace = {}
    exec("from tgeom import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tgeom.__all__)
    with pytest.raises(AttributeError):
        tgeom.no_such_name  # noqa: B018
    assert not hasattr(tgeom, "no_such_name")
