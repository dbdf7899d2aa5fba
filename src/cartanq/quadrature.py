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

Since w = e^{2phi} = (1 - u)^2 e^{2 psi} and the only divisions are by powers
of w, every G is a closed form

    G = sum_c e^{c psi(u)} p_c(u) / (1 - u)^{m_c},    p_c in Q[u],

    G' = sum_c e^{c psi} (1 - u)^{-m_c - 1} [(c psi' p_c + p_c') (1 - u) + m_c p_c],

kept exactly as Fraction coefficient lists.  sympy only generates code: each
evaluated G is lambdified once, so grid evaluation is vectorized numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from numbers import Rational
from typing import Callable, Sequence

import numpy as np
import sympy as sp

from .errors import QuadratureEvaluationError
from .series import TruncatedSeries, exp_series, reciprocal
from .surface import SurfaceChart

_U = sp.Symbol("u", nonnegative=True)


# -- ascending coefficient lists over Q ------------------------------------------------


def _trim(p) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _padd(p, q) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, b in enumerate(q):
        out[i] += b
    return out


def _pscale(p, s) -> list:
    return [s * a for a in p]


def _pmul(p, q) -> list:
    """Product by integer convolution over the common denominators."""
    if not p or not q:
        return []
    dp = lcm(*(a.denominator for a in p))
    dq = lcm(*(b.denominator for b in q))
    ip = [a.numerator * (dp // a.denominator) for a in p]
    iq = [b.numerator * (dq // b.denominator) for b in q]
    out = [0] * (len(ip) + len(iq) - 1)
    for i, a in enumerate(ip):
        if a:
            for j, b in enumerate(iq):
                out[i + j] += a * b
    den = dp * dq
    return [Fraction(n, den) for n in out]


def _pderiv(p) -> list:
    return [j * a for j, a in enumerate(p)][1:]


def _times_one_minus_u(p: list, n: int) -> list:
    for _ in range(n):
        p = [a - b for a, b in zip(p + [0], [0] + p)]
    return p


def _canonical(terms, merge: bool) -> tuple:
    """One (c, m, p) per c, in ascending c, with p nonzero and p(1) != 0.

    ``merge`` puts every term at c = 0, which is exact when psi = 0.
    """
    groups = {}
    for c, m, p in terms:
        p = _trim(p)
        if p:
            groups.setdefault(0 if merge else c, []).append((m, p))
    out = []
    for c in sorted(groups):
        parts = groups[c]
        m = max(mj for mj, _ in parts)
        p = []
        for mj, pj in parts:
            p = _padd(p, _times_one_minus_u(pj, m - mj))
        p = _trim(p)
        while p and not sum(p):
            # p = (1 - u) q with q_j = p_0 + ... + p_j
            p = list(accumulate(p))[:-1]
            m -= 1
        if p:
            out.append((c, m, tuple(p)))
    return tuple(out)


def _rational(a) -> sp.Rational:
    return sp.Rational(a.numerator, a.denominator)


def _horner(p) -> sp.Expr:
    expr = sp.Integer(0)
    for a in reversed(p):
        expr = expr * _U + _rational(a)
    return expr


@dataclass(frozen=True)
class RadialFunction:
    """The chart function z^k * sum_c e^{c psi(u)} p_c(u) / (1 - u)^{m_c}.

    ``terms`` holds the triples (c, m_c, p_c), p_c the ascending rational
    coefficients of a polynomial; ``psi`` holds those of the profile.  The
    constructor brings them to canonical form: one term per c, no factor
    (1 - u) left in p_c, and every c merged to 0 when psi = 0.  For any other
    psi, constant or not, the e^{c psi} with distinct c are linearly
    independent over Q(u) (Lindemann-Weierstrass when psi is constant), so
    == is structural and the zero function is the one without terms.
    """

    k: int
    terms: tuple = ()
    psi: tuple = ()

    def __post_init__(self):
        psi = tuple(_trim(self.psi))
        try:
            terms = _canonical(self.terms, not psi)
        except TypeError:
            raise ValueError("terms must be (c, m, p) triples, p a list") from None
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "terms", terms)

    def _check_profile(self, other: "RadialFunction"):
        if other.psi != self.psi:
            raise ValueError("radial functions of different profiles psi")

    def _scaled(self, s) -> "RadialFunction":
        return RadialFunction(
            self.k, [(c, m, _pscale(p, s)) for c, m, p in self.terms], self.psi
        )

    def __mul__(self, other):
        if isinstance(other, RadialFunction):
            self._check_profile(other)
            terms = [(c1 + c2, m1 + m2, _pmul(p1, p2))
                     for c1, m1, p1 in self.terms for c2, m2, p2 in other.terms]
            return RadialFunction(self.k + other.k, terms, self.psi)
        if isinstance(other, Rational):
            return self._scaled(Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RadialFunction):
            self._check_profile(other)
            if len(other.terms) != 1 or len(other.terms[0][2]) != 1:
                raise ValueError(
                    "can only divide by a single term e^{c psi} a (1-u)^m, "
                    "such as a power of w"
                )
            (c, m, (a,)), = other.terms
            inv = 1 / Fraction(a)
            terms = [(cj - c, mj - m, _pscale(pj, inv)) for cj, mj, pj in self.terms]
            return RadialFunction(self.k - other.k, terms, self.psi)
        if isinstance(other, Rational):
            return self._scaled(1 / Fraction(other))
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, RadialFunction) or other.k != self.k:
            raise ValueError("can only add radial functions of equal z-grade")
        self._check_profile(other)
        return RadialFunction(self.k, self.terms + other.terms, self.psi)

    def __sub__(self, other):
        if not isinstance(other, RadialFunction) or other.k != self.k:
            raise ValueError("can only subtract radial functions of equal z-grade")
        return self + (-other)

    def __neg__(self):
        return self._scaled(-1)

    def _slopes(self) -> list:
        """q_c per term, where G' = sum_c e^{c psi} q_c / (1 - u)^{m_c + 1}."""
        dpsi = _pderiv(self.psi)
        return [
            _padd(_times_one_minus_u(_padd(_pscale(_pmul(dpsi, p), c), _pderiv(p)), 1),
                  _pscale(p, m))
            for c, m, p in self.terms
        ]

    def d(self) -> "RadialFunction":
        terms = [(c, m, _padd(_pscale(p, self.k), [0] + q))
                 for (c, m, p), q in zip(self.terms, self._slopes())]
        return RadialFunction(self.k - 1, terms, self.psi)

    def dbar(self) -> "RadialFunction":
        terms = [(c, m - 1, q) for (c, m, _), q in zip(self.terms, self._slopes())]
        return RadialFunction(self.k + 1, terms, self.psi)

    @cached_property
    def of_u(self) -> Callable[[np.ndarray], np.ndarray]:
        """G compiled once to a vectorized numpy function of u."""
        psi = _horner(self.psi)
        expr = sp.Integer(0)
        for c, m, p in self.terms:
            expr += sp.exp(_rational(c) * psi) * _horner(p) / (1 - _U) ** m
        return sp.lambdify(_U, expr, modules="numpy")

    def evaluator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorized numeric evaluation at complex chart points."""
        g = self.of_u
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
    K, K_{;zbar zbar} and K_{;zbar zbar z z} are derived once per metric.
    """

    def __init__(self, psi_coeffs: Sequence = ()):
        self.psi_coeffs = tuple(Fraction(c) for c in psi_coeffs)
        # w = (1 - u)^2 e^{2 psi}: c = 2, m = -2, p = 1
        self.w = RadialFunction(0, [(2, -2, [1])], self.psi_coeffs)

    # -- geometry ------------------------------------------------------------

    @cached_property
    def bbar(self) -> RadialFunction:
        return self.w.dbar() / self.w

    @cached_property
    def gauss_curvature(self) -> RadialFunction:
        w = self.w
        dw, dbw = w.d(), w.dbar()
        ddw = dw.dbar()
        num = w * ddw - dw * dbw
        return -2 * num / (w * w * w)

    def covariant_zbar_zbar(self, f: RadialFunction) -> RadialFunction:
        """f_{;zbar zbar} = w^{-1} (Dbar^2 f - bbar Dbar f) for grade-0 f."""
        df = f.dbar()
        ddf = df.dbar()
        return (ddf - self.bbar * df) / self.w

    def raise_twice(self, fzz: RadialFunction) -> RadialFunction:
        """f_{;zbar zbar z z} = w^{-1} D(w^{-1} D(w f_{;zbar zbar}))."""
        w = self.w
        inner = (w * fzz).d() / w
        return inner.d() / w

    @cached_property
    def k_zbar_zbar(self) -> RadialFunction:
        return self.covariant_zbar_zbar(self.gauss_curvature)

    @cached_property
    def k_zbar_zbar_z_z(self) -> RadialFunction:
        return self.raise_twice(self.k_zbar_zbar)

    # -- bridges ---------------------------------------------------------------

    def radial_polynomial(self, coeffs: Sequence) -> RadialFunction:
        return RadialFunction(
            0, [(0, 0, [Fraction(c) for c in coeffs])], self.psi_coeffs
        )

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
        return bool(np.all(np.asarray(self.w.of_u(u_nodes), dtype=float) > 0.0))


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
    w_u = np.asarray(metric.w.of_u(u), dtype=float)
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
        fzz = metric.k_zbar_zbar
        pf = metric.k_zbar_zbar_z_z
    else:
        if isinstance(f, RadialFunction):
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
    target = -1 * (w * w * metric.k_zbar_zbar) / 12
    target_eval = target.evaluator()

    worst = 0.0
    for j in range(samples):
        z = radius * (0.3 + 0.7 * j / samples) * np.exp(2j * np.pi * (j + 0.3) / samples)
        sym = r.evaluate(complex(z))
        num = complex(target_eval(np.array([z]))[0])
        scale = max(abs(sym), abs(num), 1e-12)
        worst = max(worst, abs(sym - num) / scale)
    return worst
