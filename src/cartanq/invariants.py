"""Sphericity verdicts, normal-form coefficients, and calibration of the
universal weight-3 constant.

All values here are exact rationals.  The constant relating Q;11 at the
origin to the normal-form coefficient A^0_44 is measured on the one-parameter
family F_eps = z zbar + eps z^4 zbar^4.  Q;11(0) is weighted-homogeneous of
weight 6 in the coefficients of F, where a_kl has weight k + l - 2, so on
this family it is exactly c * eps: one probe gives c, and every further probe
must agree with it exactly.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt

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
        for k, l in F.coeffs:
            if k == 0 or l == 0:
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


class SphericityVerdict(
    namedtuple("SphericityVerdict", "spherical verified_order first_nonzero")
):
    """Whether r vanishes through ``verified_order``; ``first_nonzero`` is
    None or the first nonzero coefficient of r as ((k, l), GaussianRational)."""

    __slots__ = ()

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


class CalibrationResult(
    namedtuple(
        "CalibrationResult",
        "c_value probe_family epsilon_probes interpolated_polynomial",
    )
):
    """The linear coefficient c (a Fraction) of Q;11(0) in eps, the family
    name, the probes and Q;11(0) as a polynomial in eps, ascending: (0, c),
    or () when c = 0; both as tuples of Fractions."""

    __slots__ = ()


def calibrate_c(
    probes: Sequence[Fraction], family: str = "a44", order: int = 12
) -> CalibrationResult:
    """Linear coefficient c of Q;11(0) in the family parameter eps, under the
    package's fixed contact-form normalization.

    The pipeline runs once per probe.  By the weight law Q;11(0) = c * eps on
    every family here, so the first probe sets c and each further probe must
    give exactly c * eps; a probe that does not raises CalibrationError.
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
    c = None
    for eps in probes:
        F = {(1, 1): 1, **dict.fromkeys(FAMILIES[family], eps)}
        value = cartan_s(RigidSurface(TruncatedSeries(order, F)).chart).constant_term
        if value.im:
            raise CalibrationError(f"Q;11(0) = {value} is not real at eps = {eps}")
        if c is None:
            c = value.re / eps
        elif value.re != c * eps:
            raise CalibrationError(
                f"Q;11(0) = {value.re} at eps = {eps}, not c * eps = {c * eps}"
            )
    return CalibrationResult(
        c_value=c,
        probe_family=family,
        epsilon_probes=probes,
        interpolated_polynomial=(Fraction(0), c) if c else (),
    )


class ScalingCheck(
    namedtuple("ScalingCheck", "t value_at_1 value_at_t residual")
):
    """Q;11 at the center for |lambda|^2 = 1 and = t (a Fraction), and the
    residual value_at_t * t^3 - value_at_1, all GaussianRationals."""

    __slots__ = ()

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
        t3 = t * t * t
        checks.append(
            ScalingCheck(
                t=t,
                value_at_1=base_value,
                value_at_t=value,
                residual=GaussianRational(value.re * t3, value.im * t3) - base_value,
            )
        )
    return checks


def weight3_invariance_suite(surface: RigidSurface, ts=(1, 4, Fraction(9, 4))):
    """:func:`weight3_scaling` on the chart of a rigid surface."""
    return weight3_scaling(PseudohermitianChart(surface.chart), ts)
