"""Two-point tensor calculus from nothing but world-function evaluations.

Starting from pointwise evaluations, finite differencing recovers the
metric, the coincidence one-point fields, Christoffel-type symbols, and the
curvature-like tensors, all with checkable internal relations.

Run:  python3 demos/curvature_tour.py
"""

import numpy as np

from tgeom import (
    WorldSpec,
    christoffels,
    coincidence_coefficients,
    curvature_bundle,
    flat_curvature_defect,
    make_world,
    transport_matrix,
)


def symmetrized(a):
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    return sum(np.transpose(a, p) for p in perms) / 6.0


def main():
    rng = np.random.default_rng(0)
    a3 = symmetrized(rng.normal(size=(4, 4, 4)) * 0.05)
    w = make_world(WorldSpec.from_dict({
        "kind": "cubic_a", "dim": 4, "metric": [1, -1, -1, -1],
        "a3": a3.ravel().tolist(),
    }))
    x = np.array([0.2, -0.1, 0.3, 0.05])
    xp = np.array([0.5, 0.2, -0.1, 0.1])

    print("=== coincidence fields extracted by finite differences ===")
    cc = coincidence_coefficients(w, x)
    print(f"metric diag     : {np.diag(cc.g).round(10)}")
    print(f"gradient field  : {cc.a.round(10)}  (zero: fine antisymmetry)")
    print(f"|cubic coeffs - input| : {np.abs(cc.a3 - a3).max():.2e}")
    print(f"|force - raised input| : "
          f"{np.abs(cc.beta - np.einsum('si,kls->ikl', np.linalg.inv(cc.g), a3)).max():.2e}\n")

    print("=== two-point symbols and their flat curvature ===")
    cs = christoffels(w, x, xp)
    print(f"max |two-point symbol| : {np.abs(cs.tilde_x).max():.4f}")
    print(f"curvature of the two-point connection (identically zero): "
          f"{np.abs(flat_curvature_defect(w, x, xp)).max():.2e}\n")

    print("=== parallel transport ===")
    v = np.array([1.0, 0.5, -0.2, 0.1])
    for space in ("tilde_xprime", "g_xprime"):
        out = transport_matrix(w, space, x, xp) @ v
        back = transport_matrix(w, space, x, x) @ v
        print(f"{space:13s}: carried covector {np.round(out, 6)}; "
              f"coincidence defect {np.abs(back - v).max():.1e}")
    print()

    print("=== fourth-order curvature relations at a point ===")
    bundle = curvature_bundle(w, x)
    for name, value in bundle.defects.items():
        print(f"{name:18s}: {value:.3e}")
    print("(pair/block symmetries and the metric-contracted relations all "
          "hold to finite-difference tolerance)")


if __name__ == "__main__":
    main()
