"""tgeom: numerical engine for metric geometries defined by a world function.

The single primitive is the world function: half the squared distance
between two chart points, allowed to be asymmetric in its arguments.  From
pointwise evaluations of that function the package computes scalar products
of point tuples, Gram determinants, tubes and tube segments, two-point
tensor calculus, gradient lines, equal-length broken world tubes, and
flatness / degeneration diagnostics.

Every public name below, and every submodule, is imported on first use
(PEP 562), so ``import tgeom`` alone loads neither numpy nor any submodule.
"""

import importlib

# home module of each public name
_EXPORTS = {
    "errors": (
        "ComplexLengthError",
        "DegenerateSkeletonError",
        "DimensionMismatchError",
        "GeometryError",
        "InvalidWorldSpecError",
        "OrderMismatchError",
        "SingularMetricError",
        "SolverError",
    ),
    "worlds": (
        "KINDS",
        "WORLD_KINDS",
        "WorldFunction",
        "WorldSpec",
        "make_world",
        "world_from_callable",
    ),
    "products": (
        "Multivector",
        "collinearity_residual",
        "gram",
        "is_collinear",
        "is_parallel",
        "multivector_product",
        "parallelism_residual",
        "product_matrix",
        "vector_product",
        "vector_product_parts",
    ),
    "tubes": (
        "BrokenTube",
        "TubeSpec",
        "advance_seed",
        "build_broken_tube",
        "chain_parallel_residual",
        "first_order_factors",
        "first_order_residual",
        "kind_length_sq",
        "membership_tolerance",
        "sample_axisymmetric_tube",
        "section_filter",
        "segment_residual",
        "sphere_residual",
        "tube_residual",
    ),
    "calculus": (
        "ChristoffelSet",
        "CoincidenceCoefficients",
        "CurvatureBundle",
        "FundamentalMetric",
        "christoffels",
        "coincidence_coefficients",
        "curvature_bundle",
        "f_tensor",
        "flat_curvature_defect",
        "fundamental_metric",
        "riemann_from_gamma",
        "transport_matrix",
    ),
    "lines": (
        "Trajectory",
        "curve_deviation",
        "gradient_line_implicit",
        "gradient_line_ode",
        "initial_velocity",
        "path_deviation",
        "reparam_invariance_check",
    ),
    "degeneracy": (
        "DegeneracyReport",
        "degeneration_check",
        "eta_triangle",
        "euclideaness_check",
    ),
    "closed_forms": (
        "case1_asymptotic_slope",
        "case1_closed_residual",
        "case1_radii",
        "case1_waist",
        "case2_asymptotic_radius",
        "eta_case1_closed",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fd", "newton"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
