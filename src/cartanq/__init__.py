"""cartanq: exact computation of Cartan's CR invariant Q and the weight-3
invariant Q;11 for strictly pseudoconvex 3-dimensional CR manifolds with
transverse symmetry."""

from .gaussrat import GaussianRational
from .series import (
    TruncatedSeries,
    conjugate,
    differentiate,
    evaluate,
)
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
    connection_form_coefficients,
    q11_representative,
    q1_representative,
    q_representative,
    scalar_curvature_R,
    verify_bracket_identity,
)
from .invariants import (
    CalibrationResult,
    RigidSurface,
    calibrate_c,
    is_spherical,
    q11_at_origin,
    weight3_invariance_suite,
)
from .expr import parse_expression, print_expression

__version__ = "0.1.0"

# The quadrature layer pulls in numpy and sympy; it is imported on first use
# of one of its names (PEP 562) so that the exact pipeline and the CLI start
# without them.
_QUADRATURE_NAMES = frozenset({
    "CompactMetric",
    "QuadratureScheme",
    "calabi_identity_check",
    "integrate_surface",
    "rigidity_demo",
})


def __getattr__(name):
    if name in _QUADRATURE_NAMES:
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GaussianRational",
    "TruncatedSeries",
    "conjugate",
    "differentiate",
    "evaluate",
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
    "connection_form_coefficients",
    "q_representative",
    "q1_representative",
    "q11_representative",
    "scalar_curvature_R",
    "verify_bracket_identity",
    "RigidSurface",
    "CalibrationResult",
    "calibrate_c",
    "is_spherical",
    "q11_at_origin",
    "weight3_invariance_suite",
    "CompactMetric",
    "QuadratureScheme",
    "calabi_identity_check",
    "integrate_surface",
    "rigidity_demo",
    "parse_expression",
    "print_expression",
    "__version__",
]
