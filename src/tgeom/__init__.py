"""tgeom: numerical engine for metric geometries defined by a world function.

The single primitive is the world function: half the squared distance
between two chart points, allowed to be asymmetric in its arguments.  From
pointwise evaluations of that function the package computes scalar products
of point tuples, Gram determinants, tubes and tube segments, two-point
tensor calculus, gradient lines, equal-length broken world tubes, and
flatness / degeneration diagnostics.
"""

from .errors import (
    ComplexLengthError,
    DegenerateSkeletonError,
    DimensionMismatchError,
    GeometryError,
    InvalidWorldSpecError,
    OrderMismatchError,
    SingularMetricError,
    SolverError,
)
from .worlds import KINDS, WORLD_KINDS, WorldFunction, WorldSpec, make_world, world_from_callable
from .products import (
    Multivector,
    collinearity_residual,
    gram,
    is_collinear,
    is_parallel,
    multivector_product,
    parallelism_residual,
    product_matrix,
    vector_product,
    vector_product_parts,
)
from .tubes import (
    BrokenTube,
    TubeSpec,
    advance_seed,
    build_broken_tube,
    chain_parallel_residual,
    first_order_factors,
    first_order_residual,
    kind_length_sq,
    membership_tolerance,
    sample_axisymmetric_tube,
    section_filter,
    segment_residual,
    sphere_residual,
    tube_residual,
)
from .calculus import (
    ChristoffelSet,
    CoincidenceCoefficients,
    CurvatureBundle,
    FundamentalMetric,
    christoffels,
    coincidence_coefficients,
    curvature_bundle,
    f_tensor,
    flat_curvature_defect,
    fundamental_metric,
    riemann_from_gamma,
    transport_matrix,
)
from .lines import (
    Trajectory,
    curve_deviation,
    gradient_line_implicit,
    gradient_line_ode,
    initial_velocity,
    path_deviation,
    reparam_invariance_check,
)
from .degeneracy import (
    DegeneracyReport,
    degeneration_check,
    eta_triangle,
    euclideaness_check,
)
from .closed_forms import (
    case1_asymptotic_slope,
    case1_closed_residual,
    case1_radii,
    case1_waist,
    case2_asymptotic_radius,
    eta_case1_closed,
)

__version__ = "0.1.0"
