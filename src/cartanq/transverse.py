"""Pseudohermitian layer for transverse-symmetry CR manifolds.

The contact form is normalized so the Levi form relative to theta^1 = dz is
one; then b = 2 D phi, the torsion vanishes, and the Cartan-bundle
representatives of Q and Q;11 are r/(lambda lambdabar^3) and s/|lambda|^6
with r, s computed at the surface level.  Tanaka-Webster covariant
derivatives of circle-invariant functions coincide with the surface covariant
derivatives, which is what makes the cross-identities below checkable with
the same even-word engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidFiberPointError
from .gaussrat import GaussianRational
from .multipoly import MultiPoly
from .series import TruncatedSeries
from .surface import (
    SurfaceChart,
    cartan_r,
    cartan_s,
    curvature_identity_residuals,
    gauss_curvature,
)


@dataclass(frozen=True)
class FiberPoint:
    """Coordinates (lambda, mu) on Cartan's bundle over the chart center.

    The remaining fiber coordinate rho never enters Q or Q;11 and is
    deliberately unrepresented.
    """

    lam: GaussianRational
    mu: GaussianRational = field(default_factory=lambda: GaussianRational(0))

    def __post_init__(self):
        if not self.lam:
            raise InvalidFiberPointError("fiber point requires lambda != 0")

    @property
    def lam_norm2(self) -> GaussianRational:
        return self.lam * self.lam.conjugate()


class PseudohermitianChart:
    """Transverse-symmetry pseudohermitian structure over a surface chart.

    ``torsion_zero`` is structurally true: the Reeb field of the symmetry is
    an infinitesimal automorphism, so A_11 = 0.  The Levi normalization
    (contact form theta = e^{-2phi} theta_0 with Levi form one against
    theta^1 = dz) holds by construction: the d-theta coefficient b is
    D(e^{2phi}) / e^{2phi}, so b e^{2phi} = D(e^{2phi}) in the series ring.
    """

    contact_scale = "theta = e^{-2phi} theta_0, Levi form 1 against theta^1 = dz"
    torsion_zero = True

    def __init__(self, base: SurfaceChart):
        self.base = base

    @property
    def order(self) -> int:
        return self.base.order


def scalar_curvature_R(chart: PseudohermitianChart) -> TruncatedSeries:
    """Pseudohermitian scalar curvature R = -2 e^{-2phi} D Dbar phi.

    Read off the connection form b = 2 D phi as R = -Dbar(b) e^{-2phi}, a
    derivation independent of the Gauss curvature formula, so K = 2R is a
    genuine cross-check; exact order N - 2.  Derived once per chart.
    """
    base = chart.base
    return base._cached(
        "R", lambda: -(base.b.diff("zbar") * base.w_power(-1).truncated(base.order - 2))
    )


@dataclass(frozen=True)
class ConnectionForms:
    """Connection form data for the two coframes.

    ``theta1_coefficient`` is the dz-coframe coefficient of omega_1^1
    (namely 2 D phi).  ``unitary_pair`` is (-D phi, Dbar phi), the
    coefficients of the unitary-coframe form without its e^{-phi} prefactor,
    whose exponent is tracked separately to stay rational.
    """

    theta1_coefficient: TruncatedSeries
    unitary_pair: tuple
    unitary_prefactor_exponent: int = -1


def connection_form_coefficients(chart: PseudohermitianChart) -> ConnectionForms:
    b = chart.base.b
    minus_dphi = b * Fraction(-1, 2)
    dbar_phi = chart.base.bbar * Fraction(1, 2)
    return ConnectionForms(
        theta1_coefficient=b, unitary_pair=(minus_dphi, dbar_phi)
    )


@dataclass(frozen=True)
class FiberRepresentative:
    """A bundle function of the form series(z, zbar) * scale(lambda, mu)."""

    series: TruncatedSeries
    scale: GaussianRational

    def constant_value(self) -> GaussianRational:
        return self.series.constant_term * self.scale


def q_representative(chart: PseudohermitianChart, p: FiberPoint) -> FiberRepresentative:
    """Q = r / (lambda lambdabar^3) at the fiber point p."""
    lam, lamb = p.lam, p.lam.conjugate()
    scale = GaussianRational(1) / (lam * lamb * lamb * lamb)
    return FiberRepresentative(series=cartan_r(chart.base), scale=scale)


def q1_representative(chart: PseudohermitianChart, p: FiberPoint) -> FiberRepresentative:
    """Q;1 = (L_1 r - r b + i r mubar) / (lambda^2 lambdabar^3).

    For circle-invariant data L_1 acts as D: the -f d/dt component of L_1
    annihilates functions of (z, zbar), which is asserted structurally by the
    bivariate series representation.
    """
    base = chart.base
    r = cartan_r(base)
    series = (
        r.diff("z")
        - r * base.b
        + r * (GaussianRational(0, 1) * p.mu.conjugate())
    )
    lam, lamb = p.lam, p.lam.conjugate()
    scale = GaussianRational(1) / (lam * lam * lamb * lamb * lamb)
    return FiberRepresentative(series=series, scale=scale)


def q11_representative(chart: PseudohermitianChart, p: FiberPoint) -> FiberRepresentative:
    """Q;11 = s / |lambda|^6; independent of mu."""
    norm2 = p.lam_norm2
    scale = GaussianRational(1) / (norm2 * norm2 * norm2)
    return FiberRepresentative(series=cartan_s(chart.base), scale=scale)


@dataclass(frozen=True)
class BracketReport:
    residual: MultiPoly
    lhs: MultiPoly
    rhs: MultiPoly

    @property
    def is_zero(self) -> bool:
        return self.residual.is_zero


def verify_bracket_identity(perturb: bool = False) -> BracketReport:
    """Polynomial reduction of the Q;11 bracket on Cartan's bundle.

    Checks, as an identity in the indeterminates (b, bbar, mu, mubar, r, X)
    with X standing for L_1 r:
        (X - r b + i r mubar)(2A + 3 conj(B)) - i r conj(E)
            = -2 X b + 2 r b^2 - i X mubar
    with A = -(b + 2i mubar), B = -i mu, E = -mu(bbar - i mu).  With
    ``perturb`` the coefficient of A is deliberately broken (A = -(b + i
    mubar)) as a negative control; the residual must then be nonzero.
    """
    i = MultiPoly.constant(GaussianRational(0, 1))
    b = MultiPoly.var("b")
    bbar = MultiPoly.var("bbar")
    mu = MultiPoly.var("mu")
    mubar = MultiPoly.var("mubar")
    r = MultiPoly.var("r")
    X = MultiPoly.var("X")
    two = MultiPoly.constant(2)
    three = MultiPoly.constant(3)

    mu_factor = two if not perturb else MultiPoly.constant(1)
    A = -(b + mu_factor * i * mubar)
    B_conj = i * mubar  # conj(-i mu)
    E_conj = -(mubar * (b + i * mubar))  # conj(-mu (bbar - i mu))

    lhs = (X - r * b + i * r * mubar) * (two * A + three * B_conj) - i * r * E_conj
    rhs = -(two * X * b) + two * r * b * b - i * X * mubar
    return BracketReport(residual=lhs - rhs, lhs=lhs, rhs=rhs)


def check_qisgauss_trans(chart: PseudohermitianChart):
    """Exact residuals 6r + e^{4phi} R_{;1bar 1bar} and
    6s + e^{6phi} R_{;1bar 1bar 1 1}; both vanish identically."""
    return curvature_identity_residuals(scalar_curvature_R(chart), 6, chart.base)


def k_equals_2r_residual(chart: PseudohermitianChart) -> TruncatedSeries:
    """K - 2R; identically zero for every chart."""
    return gauss_curvature(chart.base) - scalar_curvature_R(chart) * 2
