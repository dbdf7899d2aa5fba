"""Sphericity verdicts, normal-form coefficients, and calibration of the
universal weight-3 constant.

All values here are exact rationals; the only tolerance-free way to "measure"
the constant relating Q;11 at the origin to the normal-form coefficient
A^0_44 is to run the pipeline on the one-parameter family
F_eps = z zbar + eps z^4 zbar^4 at several exact rational eps and read the
linear coefficient off the Lagrange interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Tuple

from .errors import (
    CalibrationError,
    InsufficientOrderError,
    InsufficientProbesError,
    NormalFormViolationError,
)
from .gaussrat import GaussianRational
from .series import TruncatedSeries
from .surface import SurfaceChart, cartan_r, cartan_s, phi_from_rigid_defining
from .transverse import FiberPoint, PseudohermitianChart, q11_representative


class RigidSurface:
    """Rigid hypersurface Im w = F(z, zbar) already in pre-normal form.

    Inputs violating the trace conditions A^0_22 = A^0_23 = A^0_32 = A^0_33
    = 0 or containing harmonic terms z^k / zbar^l are rejected rather than
    normalized: the full normalization algorithm is out of scope, and
    accepting such inputs would silently change the meaning of A^0_44.
    """

    def __init__(self, F: TruncatedSeries):
        # shape checks shared with the chart constructor
        chart = phi_from_rigid_defining(F)
        for (k, l), c in F.coeffs.items():
            if (k == 0 or l == 0) and (k, l) != (0, 0) and c:
                raise NormalFormViolationError(
                    f"harmonic term z^{k} zbar^{l} cannot be normalized here"
                )
        for kl in ((2, 2), (2, 3), (3, 2), (3, 3)):
            if F.coeff(*kl):
                raise NormalFormViolationError(
                    f"trace condition violated: A^0_{kl} != 0"
                )
        self.F = F
        self.chart = chart

    @property
    def coeffs_A0(self):
        """Pre-normal-form coefficients A^0_kl (k, l >= 2) read off F."""
        return {
            (k, l): c
            for (k, l), c in self.F.coeffs.items()
            if k >= 2 and l >= 2
        }


@dataclass(frozen=True)
class SphericityVerdict:
    spherical: bool
    verified_order: int
    first_nonzero: Optional[Tuple[Tuple[int, int], GaussianRational]]

    def __bool__(self):
        return self.spherical


def is_spherical(chart: SurfaceChart, order: int) -> SphericityVerdict:
    """True iff every coefficient of r vanishes through the stated order.

    This is a truncation-order statement, not a statement about the full
    germ; the verdict records how far vanishing was actually verified.
    """
    if order < 0:
        raise InsufficientOrderError(
            f"verification order must be non-negative, got {order}"
        )
    r = cartan_r(chart)
    if order > r.order:
        raise InsufficientOrderError(
            f"requested order {order} exceeds available exact order {r.order} of r"
        )
    first = next(iter(r.truncated(order).coeffs.items()), None)
    return SphericityVerdict(first is None, order, first)


# Calibration families F_eps = z zbar + eps * (sum of these monomials).
FAMILIES = {"a44": ((4, 4),), "a24": ((2, 4), (4, 2))}


def lagrange_interpolate(points: Sequence[Tuple[Fraction, Fraction]]):
    """Exact Lagrange interpolation; returns coefficients, ascending degree."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for j, (xj, yj) in enumerate(points):
        # numerator polynomial prod_{k != j} (x - x_k), ascending coefficients
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == j:
                continue
            denom *= xj - xk
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] += c * (-xk)
                new[d + 1] += c
            basis = new
        scale = yj / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@dataclass(frozen=True)
class CalibrationResult:
    c_value: Fraction
    probe_family: str
    epsilon_probes: Tuple[Fraction, ...]
    interpolated_polynomial: Tuple[Fraction, ...]  # ascending in eps


def calibrate_c(
    probes: Sequence[Fraction], family: str = "a44", order: int = 12
) -> CalibrationResult:
    """Linear coefficient of Q;11(0) as an exact polynomial in the family
    parameter eps, under the package's fixed contact-form normalization.

    The interpolated degree must be certified by the probe count: if the
    interpolant uses its full degree, the polynomial may not have stabilized
    and more probes are required.
    """
    if family not in FAMILIES:
        raise CalibrationError(
            f"unknown family {family!r}; known families: {', '.join(FAMILIES)}"
        )
    probes = tuple(Fraction(p) for p in probes)
    if len(set(probes)) != len(probes):
        raise InsufficientProbesError("probe values must be distinct")
    if any(p == 0 for p in probes):
        raise InsufficientProbesError("probe values must be nonzero")
    if len(probes) < 3:
        raise InsufficientProbesError("need at least 3 distinct nonzero probes")
    if order < 8:
        raise InsufficientOrderError(
            f"Q;11(0) needs a defining function of order >= 8, got {order}"
        )
    points = []
    for eps in probes:
        F = {(1, 1): 1, **dict.fromkeys(FAMILIES[family], eps)}
        value = cartan_s(RigidSurface(TruncatedSeries(order, F)).chart).constant_term
        if value.im:
            raise CalibrationError(f"Q;11(0) = {value} is not real at eps = {eps}")
        points.append((eps, value.re))
    poly = lagrange_interpolate(points)
    if len(poly) == len(probes):
        raise InsufficientProbesError(
            f"interpolant of degree {len(poly) - 1} uses all {len(probes)} probes; "
            "add probes until the degree stabilizes"
        )
    constant = poly[0] if poly else Fraction(0)
    if constant:
        raise CalibrationError(
            f"interpolated polynomial has nonzero constant term {constant}"
        )
    linear = poly[1] if len(poly) > 1 else Fraction(0)
    return CalibrationResult(
        c_value=linear,
        probe_family=family,
        epsilon_probes=probes,
        interpolated_polynomial=tuple(poly),
    )


@dataclass(frozen=True)
class ScalingCheck:
    t: Fraction
    value_at_1: GaussianRational
    value_at_t: GaussianRational
    residual: GaussianRational

    @property
    def exact(self) -> bool:
        return not self.residual


def _rational_sqrt(q: Fraction):
    """Exact square root of a positive rational, or None if irrational."""
    if q <= 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def weight3_scaling(chart: PseudohermitianChart, ts):
    """Check Q;11(|lambda|^2 = t) * t^3 = Q;11(lambda = 1) exactly at the center.

    The rescalings t must be squares of rationals so that a real lambda with
    |lambda|^2 = t exists in the coefficient field.
    """
    base_value = q11_representative(chart, FiberPoint(GaussianRational(1))).constant_value()
    checks = []
    for t in ts:
        t = Fraction(t)
        lam = _rational_sqrt(t)
        if lam is None:
            raise ValueError(f"rescaling t = {t} is not a rational square")
        value = q11_representative(
            chart, FiberPoint(GaussianRational(lam))
        ).constant_value()
        t3 = GaussianRational(t * t * t)
        checks.append(
            ScalingCheck(
                t=t,
                value_at_1=base_value,
                value_at_t=value,
                residual=value * t3 - base_value,
            )
        )
    return checks


def weight3_invariance_suite(surface: RigidSurface, ts=(1, 4, Fraction(9, 4))):
    """:func:`weight3_scaling` on the chart of a rigid surface."""
    return weight3_scaling(PseudohermitianChart(surface.chart), ts)
