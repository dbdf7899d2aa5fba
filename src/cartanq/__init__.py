"""cartanq: exact computation of Cartan's CR invariant Q and the weight-3
invariant Q;11 for strictly pseudoconvex 3-dimensional CR manifolds with
transverse symmetry."""

from .gaussrat import GaussianRational
from .series import TruncatedSeries, differentiate
from .surface import (
    SurfaceChart,
    cartan_r,
    cartan_s,
    covariant_derivative,
    gauss_curvature,
    phi_from_line_bundle_metric,
    phi_from_rigid_defining,
)
from .transverse import (
    FiberPoint,
    PseudohermitianChart,
    check_qisgauss_trans,
    q11_representative,
    q_representative,
    scalar_curvature_R,
    verify_bracket_identity,
)
from .invariants import (
    CalibrationResult,
    RigidSurface,
    calibrate_c,
    is_spherical,
    weight3_invariance_suite,
)
from .expr import parse_expression, print_expression

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "TruncatedSeries",
    "differentiate",
    "SurfaceChart",
    "cartan_r",
    "cartan_s",
    "covariant_derivative",
    "gauss_curvature",
    "phi_from_line_bundle_metric",
    "phi_from_rigid_defining",
    "FiberPoint",
    "PseudohermitianChart",
    "check_qisgauss_trans",
    "q_representative",
    "q11_representative",
    "scalar_curvature_R",
    "verify_bracket_identity",
    "RigidSurface",
    "CalibrationResult",
    "calibrate_c",
    "is_spherical",
    "weight3_invariance_suite",
    "parse_expression",
    "print_expression",
    "__version__",
]
