"""Floating-point verification layer for the compact-manifold arguments.

Metrics live on the sphere as rotationally invariant conformal perturbations
of Fubini-Study: e^{2phi} = (1+z zbar)^{-2} exp(2 psi(u)) with
u = z zbar / (1 + z zbar) in [0, 1] and psi a polynomial with rational
coefficients.  A single chart covers the sphere minus a point (measure zero),
and smoothness across infinity is structural because psi is smooth on [0, 1].

Rotational invariance lets every chart quantity be written as z^k * G(u) with
G univariate; differentiation closes on that form:

    D    (z^k G) = z^(k-1) (k G + u (1 - u) G')
    Dbar (z^k G) = z^(k+1) (1 - u)^2 G'

G is kept as a sympy expression in u and lambdified once per evaluator, so
grid evaluation is vectorized numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from .errors import QuadratureEvaluationError
from .series import TruncatedSeries, exp_series, reciprocal
from .surface import SurfaceChart

_U = sp.Symbol("u", nonnegative=True)


@dataclass(frozen=True)
class RadialFunction:
    """A chart function of the form z^k * G(u), G a sympy expression in u."""

    k: int
    G: sp.Expr

    def __mul__(self, other):
        if isinstance(other, RadialFunction):
            return RadialFunction(self.k + other.k, self.G * other.G)
        return RadialFunction(self.k, self.G * sp.nsimplify(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RadialFunction):
            return RadialFunction(self.k - other.k, self.G / other.G)
        return RadialFunction(self.k, self.G / sp.nsimplify(other))

    def __add__(self, other):
        if not isinstance(other, RadialFunction) or other.k != self.k:
            raise ValueError("can only add radial functions of equal z-grade")
        return RadialFunction(self.k, self.G + other.G)

    def __sub__(self, other):
        if not isinstance(other, RadialFunction) or other.k != self.k:
            raise ValueError("can only subtract radial functions of equal z-grade")
        return RadialFunction(self.k, self.G - other.G)

    def __neg__(self):
        return RadialFunction(self.k, -self.G)

    def d(self) -> "RadialFunction":
        g = self.G
        return RadialFunction(
            self.k - 1, sp.cancel(self.k * g + _U * (1 - _U) * g.diff(_U))
        )

    def dbar(self) -> "RadialFunction":
        return RadialFunction(self.k + 1, sp.cancel((1 - _U) ** 2 * self.G.diff(_U)))

    def simplified(self) -> "RadialFunction":
        return RadialFunction(self.k, sp.cancel(sp.expand(self.G)))

    def evaluator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized numeric evaluation at complex chart points."""
        g = sp.lambdify(_U, self.G, modules="numpy")
        k = self.k

        def call(z):
            z = np.asarray(z, dtype=complex)
            rho = (z * z.conjugate()).real
            u = rho / (1.0 + rho)
            gu = np.asarray(g(u), dtype=complex)
            gu = np.broadcast_to(gu, u.shape)
            if k == 0:
                return gu
            if k > 0:
                return z**k * gu
            with np.errstate(divide="ignore", invalid="ignore"):
                return gu / z ** (-k)

        return call


class CompactMetric:
    """Rotationally invariant metric e^{2phi} on the sphere.

    ``psi_coeffs`` are the ascending rational coefficients of the profile
    polynomial psi(u).  psi = 0 is the Fubini-Study metric of curvature 4.
    """

    def __init__(self, psi_coeffs: Sequence = ()):
        self.psi_coeffs = tuple(Fraction(c) for c in psi_coeffs)
        psi = sum(
            (sp.Rational(c.numerator, c.denominator) * _U**j
             for j, c in enumerate(self.psi_coeffs)),
            sp.Integer(0),
        )
        self.psi_expr = psi
        self.w = RadialFunction(0, (1 - _U) ** 2 * sp.exp(2 * psi))
        self._cache = {}

    def _cached(self, key, make):
        try:
            return self._cache[key]
        except KeyError:
            value = make()
            self._cache[key] = value
            return value

    # -- geometry ------------------------------------------------------------

    @property
    def bbar(self) -> RadialFunction:
        return self._cached("bbar", lambda: (self.w.dbar() / self.w).simplified())

    @property
    def gauss_curvature(self) -> RadialFunction:
        def make():
            w = self.w
            dw, dbw = w.d(), w.dbar()
            ddw = dw.dbar()
            num = w * ddw - dw * dbw
            return (-2 * num / (w * w * w)).simplified()

        return self._cached("K", make)

    def covariant_zbar_zbar(self, f: RadialFunction) -> RadialFunction:
        """f_{;zbar zbar} = w^{-1} (Dbar^2 f - bbar Dbar f) for grade-0 f."""
        df = f.dbar()
        ddf = df.dbar()
        return ((ddf - self.bbar * df) / self.w).simplified()

    def raise_twice(self, fzz: RadialFunction) -> RadialFunction:
        """f_{;zbar zbar z z} = w^{-1} D(w^{-1} D(w f_{;zbar zbar}))."""
        w = self.w
        inner = (w * fzz).d() / w
        return (inner.d() / w).simplified()

    @property
    def k_zbar_zbar(self) -> RadialFunction:
        return self._cached(
            "K2", lambda: self.covariant_zbar_zbar(self.gauss_curvature)
        )

    @property
    def k_zbar_zbar_z_z(self) -> RadialFunction:
        return self._cached("K4", lambda: self.raise_twice(self.k_zbar_zbar))

    # -- bridges ---------------------------------------------------------------

    def radial_polynomial(self, coeffs: Sequence) -> RadialFunction:
        poly = sum(
            (sp.Rational(Fraction(c)) * _U**j for j, c in enumerate(coeffs)),
            sp.Integer(0),
        )
        return RadialFunction(0, poly)

    def taylor_chart(self, order: int) -> SurfaceChart:
        """Exact Taylor expansion of the metric at the chart center.

        The overall constant exp(2 psi(0)) is irrational in general and is
        dropped; every identity and sphericity quantity downstream is
        invariant under constant rescaling of e^{2phi}.
        """
        rho = TruncatedSeries.monomial(1, 1, 1, order)
        one = TruncatedSeries.constant(1, order)
        inv = reciprocal(one + rho)
        u_series = rho * inv
        psi_rel = TruncatedSeries.zero(order)
        power = one
        for j, c in enumerate(self.psi_coeffs):
            if j == 0:
                continue
            power = power * u_series if j > 1 else u_series
            if c:
                psi_rel = psi_rel + power * c
        e2phi = inv * inv * exp_series(psi_rel * 2)
        return SurfaceChart(e2phi, provenance="direct")

    def e2phi_positive_on_grid(self, scheme: "QuadratureScheme") -> bool:
        u_nodes, _ = _radial_rule(scheme.radial_panels)
        g = sp.lambdify(_U, self.w.G, modules="numpy")
        return bool(np.all(np.asarray(g(u_nodes), dtype=float) > 0.0))


@dataclass(frozen=True)
class QuadratureScheme:
    """Composite 16-point Gauss-Legendre in u, uniform trapezoid in angle."""

    radial_panels: int = 4
    angular_nodes: int = 128
    rel_tolerance: float = 1e-6
    abs_tolerance: float = 1e-8

    def __post_init__(self):
        if self.radial_panels < 1 or 16 * self.radial_panels < 16:
            raise ValueError("need at least one radial panel (16 nodes)")
        if self.angular_nodes < 16:
            raise ValueError("need at least 16 angular nodes")

    def refined(self) -> "QuadratureScheme":
        return QuadratureScheme(
            radial_panels=2 * self.radial_panels,
            angular_nodes=2 * self.angular_nodes,
            rel_tolerance=self.rel_tolerance,
            abs_tolerance=self.abs_tolerance,
        )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _radial_rule(panels: int):
    """Nodes and weights for composite Gauss-Legendre on u in [0, 1]."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * _GL_NODES)
        weights.append(half * _GL_WEIGHTS)
    return np.concatenate(nodes), np.concatenate(weights)


def _integral_once(integrand, metric: CompactMetric, panels: int, m_ang: int) -> float:
    u, du_w = _radial_rule(panels)
    theta = 2.0 * np.pi * np.arange(m_ang) / m_ang
    r = np.sqrt(u / (1.0 - u))
    Z = r[:, None] * np.exp(1j * theta)[None, :]
    vals = np.asarray(integrand(Z), dtype=complex)
    vals = np.broadcast_to(vals, Z.shape)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise QuadratureEvaluationError(
            f"non-finite integrand sample at node z = {Z[tuple(bad)]}",
            node=Z[tuple(bad)],
        )
    g = sp.lambdify(_U, metric.w.G, modules="numpy")
    w_u = np.asarray(g(u), dtype=float)
    # area element: w * (i/2) dz ^ dzbar = w * r dr dtheta,
    # r dr = du / (2 (1-u)^2)
    radial_factor = du_w * w_u / (2.0 * (1.0 - u) ** 2)
    angular_factor = 2.0 * np.pi / m_ang
    contrib = vals.real * radial_factor[:, None] * angular_factor
    return float(np.sum(contrib))


def integrate_surface(integrand, metric: CompactMetric, scheme: QuadratureScheme):
    """Area integral over the sphere chart with a one-step Richardson error
    estimate; returns (value, error_estimate)."""
    coarse = _integral_once(integrand, metric, scheme.radial_panels, scheme.angular_nodes)
    fine = _integral_once(
        integrand, metric, 2 * scheme.radial_panels, 2 * scheme.angular_nodes
    )
    return fine, abs(fine - coarse)


@dataclass(frozen=True)
class CalabiCheck:
    lhs: float
    rhs: float
    relative_residual: float
    lhs_error: float
    rhs_error: float

    def passes(self, rel_tolerance: float) -> bool:
        return (
            self.relative_residual < rel_tolerance
            and self.lhs >= -rel_tolerance
        )


def calabi_identity_check(
    f, metric: CompactMetric, scheme: QuadratureScheme
) -> CalabiCheck:
    """Integration-by-parts identity
    integral |f_{;zbar zbar}|^2 dA = integral f_{;zbar zbar z z} f dA
    for a circle-invariant real function f.

    ``f`` may be a RadialFunction of grade 0, the string 'K' for the Gauss
    curvature, or a sequence of rational polynomial coefficients in u.
    """
    if isinstance(f, str):
        if f != "K":
            raise ValueError(f"unknown function name {f!r}")
        rf = metric.gauss_curvature
    elif isinstance(f, RadialFunction):
        if f.k != 0:
            raise ValueError("f must be circle invariant (grade 0)")
        rf = f
    else:
        rf = metric.radial_polynomial(f)

    fzz = metric.covariant_zbar_zbar(rf)
    pf = metric.raise_twice(fzz)

    fzz_eval = fzz.evaluator()
    rf_eval = rf.evaluator()
    pf_eval = pf.evaluator()

    lhs, lhs_err = integrate_surface(
        lambda z: np.abs(fzz_eval(z)) ** 2, metric, scheme
    )
    rhs, rhs_err = integrate_surface(
        lambda z: (pf_eval(z) * rf_eval(z)).real, metric, scheme
    )
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return CalabiCheck(
        lhs=lhs,
        rhs=rhs,
        relative_residual=abs(lhs - rhs) / denom,
        lhs_error=lhs_err,
        rhs_error=rhs_err,
    )


@dataclass(frozen=True)
class RigidityReport:
    i2: float
    i4: float
    i2_error: float
    i4_error: float
    relative_gap: float
    numeric_spherical: bool
    symbolic_spherical: bool

    @property
    def consistent(self) -> bool:
        return self.numeric_spherical == self.symbolic_spherical


def rigidity_demo(
    metric: CompactMetric,
    scheme: QuadratureScheme,
    symbolic_order: int = 12,
) -> RigidityReport:
    """Quadrature realization of the compact rigidity mechanism.

    I2 = integral |K_{;zbar zbar}|^2 dA and I4 = integral P(K) K dA must
    agree; the metric is spherical iff I2 vanishes, and the verdict is
    cross-checked against the exact sphericity test on the Taylor expansion
    of the same metric at the chart center.
    """
    from .invariants import is_spherical
    from .surface import cartan_r

    check = calabi_identity_check("K", metric, scheme)
    numeric_spherical = abs(check.lhs) < scheme.abs_tolerance

    chart = metric.taylor_chart(symbolic_order)
    r = cartan_r(chart)
    verdict = is_spherical(chart, r.order)

    return RigidityReport(
        i2=check.lhs,
        i4=check.rhs,
        i2_error=check.lhs_error,
        i4_error=check.rhs_error,
        relative_gap=check.relative_residual,
        numeric_spherical=numeric_spherical,
        symbolic_spherical=verdict.spherical,
    )


def symbolic_numeric_gap(
    metric: CompactMetric, order: int = 20, radius: float = 0.25, samples: int = 8
) -> float:
    """Max relative gap between the exact r-series of the Taylor-expanded
    metric and the numeric -(e^{4phi}/12) K_{;zbar zbar} on |z| <= radius."""
    from .surface import cartan_r

    chart = metric.taylor_chart(order)
    r = cartan_r(chart)

    w = metric.w
    target = (-1 * (w * w * metric.k_zbar_zbar) / 12).simplified()
    target_eval = target.evaluator()

    worst = 0.0
    for j in range(samples):
        z = radius * (0.3 + 0.7 * j / samples) * np.exp(2j * np.pi * (j + 0.3) / samples)
        sym = r.evaluate(complex(z))
        num = complex(target_eval(np.array([z]))[0])
        scale = max(abs(sym), abs(num), 1e-12)
        worst = max(worst, abs(sym - num) / scale)
    return worst
