"""Command-line front end: world-spec ingestion, computations, CSV/JSON
emission.

Subcommands:

    tube-section    radial tube profile on a parameter grid  -> CSV
    gradient-line   implicit or integrated gradient line     -> CSV
    broken-tube     equal-length extremal chain              -> CSV
    check           euclideaness | degeneration report       -> JSON
    coefficients    coincidence-limit one-point fields       -> JSON
    curvature       fourth-order curvature bundle            -> JSON

Exit codes: 0 success, 1 input error, 2 solver failure; failures carry a
JSON error detail on stderr.  CSV output uses '.' decimals, ',' separators
and 17 significant digits (round-trip safe), always with a header row, and
is written atomically (temp file + rename).  Repeated runs with identical
configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import calculus, degeneracy, lines, tubes
from .errors import GeometryError, InvalidWorldSpecError, SolverError
from .worlds import KINDS, WorldFunction, WorldSpec, make_world

_FMT = "%.17g"


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _InputError(message)


def _fmt(value) -> str:
    return _FMT % float(value)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tgeom-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header, rows):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(row))
    _atomic_write(path, "\n".join(out) + "\n")


def _load_world(path: str) -> WorldFunction:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read world spec: {exc}") from exc
    return make_world(WorldSpec.from_json(text))


def _parse_point(text: str, dim: int, what: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise _InputError(f"{what} must be comma-separated numbers") from exc
    if len(values) != dim:
        raise _InputError(f"{what} must have {dim} coordinates")
    if not np.all(np.isfinite(values)):
        raise _InputError(f"{what} must have finite coordinates")
    return np.asarray(values)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tgeom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and validated but ignored: grid "
                             "sampling is vectorized; kept so existing "
                             "command lines keep working")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tube-section", help="radial tube profile -> CSV")
    p.add_argument("--world", required=True)
    p.add_argument("--y", required=True, help="generating point, comma-separated")
    p.add_argument("--kind", choices=KINDS, default="n")
    p.add_argument("--tau-min", type=float, required=True)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--tau-steps", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradient-line", help="gradient line -> CSV")
    p.add_argument("--world", required=True)
    p.add_argument("--kind", choices=KINDS, default="f")
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--method", choices=("implicit", "ode"), default="implicit")
    p.add_argument("--out", required=True)

    p = sub.add_parser("broken-tube", help="equal-length chain -> CSV")
    p.add_argument("--world", required=True)
    p.add_argument("--kind", choices=KINDS, default="f")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed-from", dest="seed_from", required=True)
    p.add_argument("--seed-to", dest="seed_to", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="diagnostic report -> JSON")
    p.add_argument("what", choices=("euclideaness", "degeneration"))
    p.add_argument("--world", required=True)
    p.add_argument("--at", default=None,
                   help="anchor point for degeneration (default origin)")
    p.add_argument("--probes", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("coefficients", help="coincidence fields -> JSON")
    p.add_argument("--world", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("curvature", help="curvature bundle -> JSON")
    p.add_argument("--world", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_tube_section(args):
    w = _load_world(args.world)
    y = _parse_point(args.y, w.dim, "--y")
    if args.tau_steps < 1:
        raise _InputError("--tau-steps must be positive")
    if not np.isfinite([args.tau_min, args.tau_max]).all():
        raise _InputError("--tau-min and --tau-max must be finite")
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_steps)
    results = tubes.sample_axisymmetric_tube(w, y, args.kind, taus)

    rows = []
    for tau, radii in results:
        if len(radii) == 0:
            rows.append([_fmt(tau), "", "", "0"])
        else:
            rows.append([_fmt(tau), _fmt(radii[0]), _fmt(radii[-1]),
                         str(len(radii))])
    _write_csv(args.out, ["tau", "r_inner", "r_outer", "n_roots"], rows)
    return 0


def _cmd_gradient_line(args):
    w = _load_world(args.world)
    x_start = _parse_point(args.from_, w.dim, "--from")
    x_end = _parse_point(args.to, w.dim, "--to")
    if args.steps < 2:
        raise _InputError("--steps must be at least 2")
    if args.method == "implicit":
        grid = np.linspace(0.0, 1.0, args.steps)
        traj = lines.gradient_line_implicit(w, args.kind, x_start, x_end, grid)
    else:
        v0 = lines.initial_velocity(w, args.kind, x_start, x_end)
        traj = lines.gradient_line_ode(w, args.kind, x_start, v0, (0.0, 1.0),
                                       steps=args.steps)
    header = ["tau"] + [f"x{i}" for i in range(w.dim)] + ["residual"]
    rows = []
    for tau, point, res in zip(traj.params, traj.points, traj.residuals):
        rows.append([_fmt(tau)] + [_fmt(c) for c in point] + [_fmt(res)])
    _write_csv(args.out, header, rows)
    if traj.warnings:
        sys.stderr.write(json.dumps({"warnings": traj.warnings}) + "\n")
    return 0


def _cmd_broken_tube(args):
    w = _load_world(args.world)
    p0 = _parse_point(args.seed_from, w.dim, "--seed-from")
    p1 = _parse_point(args.seed_to, w.dim, "--seed-to")
    if args.steps < 1:
        raise _InputError("--steps must be positive")
    if not 0.0 < args.mu < np.inf:
        raise _InputError("--mu must be positive and finite")
    chain = tubes.build_broken_tube(w, args.kind, p0, p1, args.mu, args.steps)
    header = (["index"] + [f"x{i}" for i in range(w.dim)]
              + ["length_residual", "sym_length_residual",
                 "parallel_residual", "multiple_extrema"])
    rows = []
    n = len(chain.vertices)
    for i, vertex in enumerate(chain.vertices):
        row = [str(i)] + [_fmt(c) for c in vertex]
        row.append(_fmt(chain.length_residuals[i]) if i < n - 1 else "")
        row.append(_fmt(chain.sym_length_residuals[i]) if i < n - 1 else "")
        row.append(_fmt(chain.parallel_residuals[i]) if i < n - 2 else "")
        row.append(str(int(chain.multiplicity_flags[i - 2])) if i >= 2 else "")
        rows.append(row)
    _write_csv(args.out, header, rows)
    return 0


def _cmd_check(args):
    w = _load_world(args.world)
    if args.what == "degeneration":
        at = (np.zeros(w.dim) if args.at is None
              else _parse_point(args.at, w.dim, "--at"))
        report = degeneracy.degeneration_check(w, at)
    else:
        if args.seed < 0:
            raise _InputError("--seed must be nonnegative")
        # staggered-time basis and probes stay clear of chart poles of the
        # screened family while exercising every condition
        basis = 0.5 * np.vstack([np.zeros(w.dim), np.eye(w.dim)])
        basis[:, 0] += 0.1 * np.arange(w.dim + 1)
        probes = degeneracy.diagnostic_probes(w.dim, max(4, args.probes),
                                              seed=args.seed)
        report = degeneracy.euclideaness_check(w, w.dim, basis, probes,
                                               seed=args.seed)
    _atomic_write(args.out, report.to_json() + "\n")
    return 0


def _cmd_coefficients(args):
    w = _load_world(args.world)
    at = _parse_point(args.at, w.dim, "--at")
    cc = calculus.coincidence_coefficients(w, at)
    doc = {
        "world": w.kind,
        "at": at,
        "a": cc.a,
        "g": cc.g,
        "g_inv": cc.g_inv,
        "g_tilde": cc.g_tilde,
        "g_tilde_inv": cc.g_tilde_inv,
        "sigma_f": cc.sigma_f,
        "sigma_p": cc.sigma_p,
        "gamma": cc.gamma,
        "beta": cc.beta,
        "gamma_tilde_f": cc.gamma_tilde_f,
        "gamma_tilde_p": cc.gamma_tilde_p,
        "a3": cc.a3,
        "g3": cc.g3,
    }
    _atomic_write(args.out, json.dumps(doc, indent=2, default=lambda a: a.tolist()) + "\n")
    return 0


def _cmd_curvature(args):
    w = _load_world(args.world)
    at = _parse_point(args.at, w.dim, "--at")
    bundle = calculus.curvature_bundle(w, at)
    doc = {
        "world": w.kind,
        "at": at,
        "dim": w.dim,
        "defects": bundle.defects,
        "tolerance": calculus.CURVATURE_TOLERANCE,
        "f_coincident": bundle.f_coincident.ravel(),
        "f_tilde_coincident": bundle.f_tilde_coincident.ravel(),
        "riemann": bundle.riemann.ravel(),
        "riemann_tilde_f": bundle.riemann_tilde_f.ravel(),
        "riemann_tilde_p": bundle.riemann_tilde_p.ravel(),
    }
    _atomic_write(args.out, json.dumps(doc, indent=2, default=lambda a: a.tolist()) + "\n")
    return 0


_COMMANDS = {
    "tube-section": _cmd_tube_section,
    "gradient-line": _cmd_gradient_line,
    "broken-tube": _cmd_broken_tube,
    "check": _cmd_check,
    "coefficients": _cmd_coefficients,
    "curvature": _cmd_curvature,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        sys.stderr.write(json.dumps({"error": "input", "detail": str(exc)}) + "\n")
        return 1
    except InvalidWorldSpecError as exc:
        sys.stderr.write(json.dumps({"error": "world-spec", "detail": str(exc)}) + "\n")
        return 1
    except OSError as exc:  # an unwritable --out; an unreadable --world is an _InputError
        detail = f"cannot write output: {exc.strerror or exc}"
        sys.stderr.write(json.dumps({"error": "input", "detail": detail}) + "\n")
        return 1
    except SolverError as exc:
        sys.stderr.write(json.dumps({
            "error": "solver", "detail": str(exc), "extra": exc.detail,
        }) + "\n")
        return 2
    except FloatingPointError as exc:  # a finite-difference stencil overflowed
        sys.stderr.write(json.dumps({"error": "solver", "detail": str(exc)}) + "\n")
        return 2
    except GeometryError as exc:
        sys.stderr.write(json.dumps({"error": "geometry", "detail": str(exc)}) + "\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
