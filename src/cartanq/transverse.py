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

from collections import namedtuple

from .errors import InvalidFiberPointError
from .gaussrat import GaussianRational
from .multipoly import MultiPoly
from .series import TruncatedSeries
from .surface import (
    SurfaceChart,
    cartan_r,
    cartan_s,
    gauss_curvature,
    qisgauss_residuals,
    weighted_words,
)


class FiberPoint(namedtuple("FiberPoint", "lam")):
    """The coordinate lambda (a nonzero GaussianRational) on Cartan's bundle
    over the chart center.

    The other fiber coordinates mu and rho never enter Q or Q;11 and are
    deliberately unrepresented.
    """

    __slots__ = ()

    def __new__(cls, lam):
        if not lam:
            raise InvalidFiberPointError("fiber point requires lambda != 0")
        return super().__new__(cls, lam)

    @classmethod
    def _make(cls, iterable):
        # keeps _replace behind the lambda != 0 guard
        return cls(*iterable)


class PseudohermitianChart(SurfaceChart):
    """Transverse-symmetry pseudohermitian structure over a surface chart.

    It carries no data beyond w: A_11 = 0 because the Reeb field of the
    symmetry is an infinitesimal automorphism, and the Levi normalization
    (Levi form one against theta^1 = dz) holds because b e^{2phi} =
    D(e^{2phi}) in the series ring.  So it is the chart over the same w,
    sharing its cache: every function here gives the same objects on either.
    """

    def __init__(self, base: SurfaceChart):
        self.e2phi = base.e2phi
        self._cache = base._cache


def scalar_curvature_R(chart: SurfaceChart) -> TruncatedSeries:
    """Pseudohermitian scalar curvature R = -2 e^{-2phi} D Dbar phi.

    Read off the connection form b = 2 D phi as R = -Dbar(b) e^{-2phi}, a
    derivation independent of the Gauss curvature formula, so K = 2R is a
    genuine cross-check; exact order N - 2.  Derived once per chart.
    """
    return chart._cached("R", lambda: -(chart.b.diff("zbar") * chart.w_power(-1)))


class FiberRepresentative(namedtuple("FiberRepresentative", "series scale")):
    """A bundle function of the form series(z, zbar) * scale(lambda), with a
    TruncatedSeries and a GaussianRational."""

    __slots__ = ()

    def constant_value(self) -> GaussianRational:
        return self.series.constant_term * self.scale


def q_representative(chart: SurfaceChart, p: FiberPoint) -> FiberRepresentative:
    """Q = r / (lambda lambdabar^3) at the fiber point p."""
    lam, lamb = p.lam, p.lam.conjugate()
    scale = GaussianRational(1) / (lam * lamb * lamb * lamb)
    return FiberRepresentative(series=cartan_r(chart), scale=scale)


def q11_representative(chart: SurfaceChart, p: FiberPoint) -> FiberRepresentative:
    """Q;11 = s / |lambda|^6; independent of mu.  The scale is real, so it is
    formed in rationals from |lambda|^2."""
    norm2 = p.lam.re * p.lam.re + p.lam.im * p.lam.im
    scale = GaussianRational(1 / (norm2 * norm2 * norm2))
    return FiberRepresentative(series=cartan_s(chart), scale=scale)


def verify_bracket_identity(perturb: bool = False) -> MultiPoly:
    """Polynomial reduction of the Q;11 bracket on Cartan's bundle.

    Returns the residual lhs - rhs of the identity, in the indeterminates
    (b, mubar, r, X) with X standing for L_1 r,
        (X - r b + i r mubar)(2A + 3 conj(B)) - i r conj(E)
            = -2 X b + 2 r b^2 - i X mubar
    with A = -(b + 2i mubar), B = -i mu, E = -mu(bbar - i mu).  conj(B) =
    i mubar and conj(E) = -mubar(b + i mubar) are written out in b and mubar,
    so bbar and mu never occur.  With
    ``perturb`` the coefficient of A is deliberately broken (A = -(b + i
    mubar)) as a negative control; the residual must then be nonzero.
    """
    i = MultiPoly.constant(GaussianRational(0, 1))
    b = MultiPoly.var("b")
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
    return lhs - rhs


def check_qisgauss_trans(chart: SurfaceChart):
    """Exact residuals 6r + e^{4phi} R_{;1bar 1bar} and
    6s + e^{6phi} R_{;1bar 1bar 1 1}; both vanish identically.

    The covariant words are linear, so with D = K - 2R the residuals are
    (k1 - e^{4phi} D_{;zbar zbar}) / 2 and (k2 - e^{6phi} D_{;zbar zbar z z}) / 2,
    where k1, k2 are the K residuals of :func:`qisgauss_residuals`.  They stay
    exact for any D; the words of the zero series cost almost nothing."""
    k1, k2 = qisgauss_residuals(chart)
    d2, d4 = weighted_words(k_equals_2r_residual(chart), chart)
    half = GaussianRational(1) / 2
    return (k1 - d2) * half, (k2 - d4) * half


def k_equals_2r_residual(chart: SurfaceChart) -> TruncatedSeries:
    """K - 2R; identically zero for every chart.  Derived once per chart."""
    return chart._cached("K-2R", lambda: gauss_curvature(chart) - scalar_curvature_R(chart) * 2)
