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

from dataclasses import dataclass

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
    """The coordinate lambda on Cartan's bundle over the chart center.

    The other fiber coordinates mu and rho never enter Q or Q;11 and are
    deliberately unrepresented.
    """

    lam: GaussianRational

    def __post_init__(self):
        if not self.lam:
            raise InvalidFiberPointError("fiber point requires lambda != 0")

    @property
    def lam_norm2(self) -> GaussianRational:
        return self.lam * self.lam.conjugate()


class PseudohermitianChart:
    """Transverse-symmetry pseudohermitian structure over a surface chart.

    The torsion vanishes structurally: the Reeb field of the symmetry is an
    infinitesimal automorphism, so A_11 = 0.  The Levi normalization
    (contact form theta = e^{-2phi} theta_0 with Levi form one against
    theta^1 = dz) holds by construction: the d-theta coefficient b is
    D(e^{2phi}) / e^{2phi}, so b e^{2phi} = D(e^{2phi}) in the series ring.
    """

    def __init__(self, base: SurfaceChart):
        self.base = base


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
class FiberRepresentative:
    """A bundle function of the form series(z, zbar) * scale(lambda)."""

    series: TruncatedSeries
    scale: GaussianRational

    def constant_value(self) -> GaussianRational:
        return self.series.constant_term * self.scale


def q_representative(chart: PseudohermitianChart, p: FiberPoint) -> FiberRepresentative:
    """Q = r / (lambda lambdabar^3) at the fiber point p."""
    lam, lamb = p.lam, p.lam.conjugate()
    scale = GaussianRational(1) / (lam * lamb * lamb * lamb)
    return FiberRepresentative(series=cartan_r(chart.base), scale=scale)


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
