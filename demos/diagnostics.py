"""Flatness and degeneration diagnostics across the world families.

Two diagnostic suites: the flat-space conditions classify a world as
proper-flat, mixed-signature flat, or neither; the degeneration checks
decide whether first-order tubes collapse to curves.  Any nonconstant
antisymmetric component destroys degeneration.

Run:  python3 demos/diagnostics.py
"""

import numpy as np

from tgeom import WorldSpec, degeneration_check, euclideaness_check, make_world
from tgeom.degeneracy import diagnostic_probes


def symmetrized(a):
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return sum(np.transpose(a, p) for p in perms) / 6.0


def families():
    rng = np.random.default_rng(11)
    a3 = symmetrized(rng.normal(size=(4, 4, 4)) * 0.05)
    mink = [1, -1, -1, -1]
    docs = {
        "proper flat": {"kind": "euclidean", "dim": 4, "metric": [1, 1, 1, 1]},
        "signature flat": {"kind": "euclidean", "dim": 4, "metric": mink},
        "constant anisotropy": {"kind": "constant_a", "dim": 4, "metric": mink,
                                "b": [0.3, 0.1, 0, 0]},
        "cubic anisotropy": {"kind": "case1", "dim": 4, "metric": mink,
                             "b": [1, 0, 0, 0], "alpha": 0.2},
        "screened anisotropy": {"kind": "case2", "dim": 4, "metric": mink,
                                "b": [1, 0, 0, 0], "alpha": 0.2, "beta": 1.0},
        "fine antisymmetry": {"kind": "cubic_a", "dim": 4, "metric": mink,
                              "a3": a3.ravel().tolist()},
    }
    return {name: make_world(WorldSpec.from_dict(doc))
            for name, doc in docs.items()}


def main():
    worlds = families()

    print("=== flat-space conditions (symmetry, dimension, reconstruction, "
          "solvability) ===")
    basis = 0.5 * np.vstack([np.zeros(4), np.eye(4)])
    basis[:, 0] += 0.1 * np.arange(5)
    probes = diagnostic_probes(4)
    for name, w in worlds.items():
        rep = euclideaness_check(w, basis, probes)
        failing = [c.name for c in rep.checks if not c.verdict]
        print(f"{name:22s} -> {rep.summary['classification']:17s}"
              + (f" (failing: {', '.join(failing)})" if failing else ""))

    print("\n=== first-order tube degeneration at a sample point ===")
    x = np.array([0.2, -0.1, 0.3, 0.05])
    print(f"{'world':22s} {'neutral':>14} {'future':>14} {'past':>14}")
    for name, w in worlds.items():
        rep = degeneration_check(w, x)
        print(f"{name:22s} {rep.summary['neutral']:>14} "
              f"{rep.summary['future']:>14} {rep.summary['past']:>14}")
    print("\nonly the worlds whose antisymmetric part is at most linear with "
          "constant coefficients keep their tubes degenerate (collapsed to "
          "lines)")


if __name__ == "__main__":
    main()
