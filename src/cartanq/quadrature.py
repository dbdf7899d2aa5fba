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

Since w = e^{2phi} = (1 - u)^2 e^{2 psi} has weight c = 2 and the only
divisions are by powers of w, every G is one weighted term

    G = e^{c psi(u)} p(u) / (1 - u)^m,    p in Q[u],

    G' = e^{c psi} (1 - u)^{-m - 1} [(c psi' p + p') (1 - u) + m p],

kept exactly as a Fraction coefficient list.  sympy only generates code: each
evaluated G is lambdified once, so evaluation is vectorized numpy, and sympy
pays for printing alone.  The expression is built unevaluated, the Horner
chains of p and psi times exp(c psi) and (1 - u)^-m, so sympy does no
arithmetic on it: no flattening of sums and products, no assumption queries
and no canonical ordering.  The symbol u carries no assumptions either.
lambdify gets docstring_limit=0, so it does not render each expression to a
string for a docstring, and the numpy printer has order "none", so it prints
sums and products in the order they were built, which does not depend on
string hashing, instead of sorting them.  The code names only exp, so it is
compiled against exp alone, not against a copy of numpy's namespace.

Area integrals take circle-invariant integrands only, real functions of u:
the chart area's 1 and every integrand of the Calabi identity and of the
rigidity demo, |f_{;zbar zbar}|^2 and f_{;zbar zbar z z} f, which have grade
0.  The angular integral of such an integrand is 2 pi times its value at
|z| = sqrt(u / (1 - u)), so it is called once, on the float array of the nodes
of composite 16-point Gauss-Legendre in u.
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
from sympy.printing.numpy import NumPyPrinter

from .errors import QuadratureEvaluationError
from .series import TruncatedSeries, exp_series
from .surface import SurfaceChart

_U = sp.Symbol("u")


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


def _times_one_minus_u(p, n: int) -> list:
    p = list(p)
    for _ in range(n):
        p = [a - b for a, b in zip(p + [0], [0] + p)]
    return p


def _binomial(m: int, n: int) -> list:
    """(1 + rho)^m to degree n in rho, for any integer m."""
    out = [Fraction(1)]
    for j in range(n):
        out.append(out[-1] * (m - j) / (j + 1))
    return out[: n + 1]


def _rational(a) -> sp.Rational:
    return sp.Rational(a.numerator, a.denominator)


def _horner(p) -> sp.Expr:
    """The Horner chain of p as an unevaluated tree, zero terms left out."""
    if not p:
        return sp.Integer(0)
    expr = _rational(p[-1])
    for a in reversed(p[:-1]):
        expr = sp.Mul(_U, expr, evaluate=False)
        if a:
            expr = sp.Add(expr, _rational(a), evaluate=False)
    return expr


_ONE_MINUS_U = sp.Add(sp.Integer(1), sp.Mul(sp.Integer(-1), _U, evaluate=False),
                      evaluate=False)


@dataclass(frozen=True)
class RadialFunction:
    """The chart function z^k e^{c psi(u)} p(u) / (1 - u)^m.

    ``p`` holds the ascending rational coefficients of a polynomial and
    ``psi`` those of the profile.  The constructor brings them to canonical
    form: no factor (1 - u) left in p, c = 0 when psi = 0, and the zero
    function is p = () with c = m = 0.  For any other psi, constant or not,
    e^{c psi} with c != 0 is not in Q(u) (Lindemann-Weierstrass when psi is
    constant), so == is structural and the value is zero exactly when p is
    empty.
    """

    k: int
    c: Fraction = Fraction(0)
    m: int = 0
    p: tuple = ()
    psi: tuple = ()

    def __post_init__(self):
        psi, p, m = tuple(_trim(self.psi)), _trim(self.p), self.m
        while p and not sum(p):
            # p = (1 - u) q with q_j = p_0 + ... + p_j
            p = list(accumulate(p))[:-1]
            m -= 1
        c = Fraction(self.c) if p and psi else Fraction(0)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "m", m if p else 0)
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "psi", psi)

    def _check_profile(self, other: "RadialFunction"):
        if other.psi != self.psi:
            raise ValueError("radial functions of different profiles psi")

    def _with(self, k: int, c, m: int, p) -> "RadialFunction":
        return RadialFunction(k, c, m, p, self.psi)

    def __mul__(self, other):
        if isinstance(other, RadialFunction):
            self._check_profile(other)
            return self._with(self.k + other.k, self.c + other.c, self.m + other.m,
                              _pmul(self.p, other.p))
        if isinstance(other, Rational):
            return self._with(self.k, self.c, self.m, _pscale(self.p, Fraction(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RadialFunction):
            self._check_profile(other)
            if len(other.p) != 1:
                raise ValueError(
                    "can only divide by e^{c psi} a (1-u)^m with a a nonzero "
                    "constant, such as a power of w"
                )
            return self._with(self.k - other.k, self.c - other.c, self.m - other.m,
                              _pscale(self.p, 1 / Fraction(other.p[0])))
        if isinstance(other, Rational):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, RadialFunction) or other.k != self.k:
            raise ValueError("can only add radial functions of equal z-grade")
        self._check_profile(other)
        if not other.p:
            return self
        if not self.p:
            return other
        if other.c != self.c:
            raise ValueError("can only add radial functions of equal weight c")
        m = max(self.m, other.m)
        p = _padd(_times_one_minus_u(self.p, m - self.m),
                  _times_one_minus_u(other.p, m - other.m))
        return self._with(self.k, self.c, m, p)

    def __sub__(self, other):
        if not isinstance(other, RadialFunction):
            raise ValueError("can only subtract radial functions of equal z-grade")
        return self + (-other)

    def __neg__(self):
        return self * -1

    def _slope(self) -> list:
        """q, where G' = e^{c psi} q / (1 - u)^(m + 1)."""
        cp = _pscale(_pmul(_pderiv(self.psi), self.p), self.c)
        return _padd(_times_one_minus_u(_padd(cp, _pderiv(self.p)), 1),
                     _pscale(self.p, self.m))

    def d(self) -> "RadialFunction":
        p = _padd(_pscale(self.p, self.k), [0] + self._slope())
        return self._with(self.k - 1, self.c, self.m, p)

    def dbar(self) -> "RadialFunction":
        return self._with(self.k + 1, self.c, self.m - 1, self._slope())

    def taylor(self, order: int) -> TruncatedSeries:
        """The exact series at the chart center of this value divided by
        e^{c psi(0)}, a constant that is irrational in general.

        With rho = z zbar, u = rho / (1 + rho) and 1 / (1 - u) = 1 + rho, the
        quotient is z^k p(u) (1 + rho)^m e^{c (psi(u) - psi(0))}: a power
        series in rho alone, times the exponential when c != 0 and psi is
        not constant.
        """
        n = order // 2  # rho^j has total degree 2j
        u = [0] + _binomial(-1, n - 1)

        def in_rho(q, size: int) -> list:
            out = []
            for a in reversed(q):
                out = _padd(_pmul(out, u), [a])[:size]
            return out

        size = max(0, (order - self.k) // 2 + 1)  # z^k rho^j has total degree k + 2j
        part = _pmul(in_rho(self.p, size), _binomial(self.m, size - 1))[:size]
        series = TruncatedSeries(order, {(self.k + j, j): a for j, a in enumerate(part)})
        if self.c and len(self.psi) > 1:
            rel = in_rho((0,) + self.psi[1:], n + 1)
            series = series * exp_series(
                TruncatedSeries(order, {(j, j): self.c * a for j, a in enumerate(rel)})
            )
        return series

    @cached_property
    def of_u(self) -> Callable[[np.ndarray], np.ndarray]:
        """G compiled once to a vectorized numpy function of u: the zero
        function to the constant 0, any other G to its Horner chain times
        exp(c psi) when c != 0 and times (1 - u)^-m when m != 0.  The tree is
        built unevaluated, so sympy does no arithmetic on it, and its code
        names only exp, so it is compiled against exp alone."""
        # The printer splits a negative number that leads a product off it and
        # multiplies it back into a single remaining factor with evaluated
        # arithmetic, as in -2/3 * (1 - u); so u leads each Horner product,
        # and p's chain, which may be such a number, closes the outer one.
        factors = []
        if self.c:
            factors.append(sp.exp(sp.Mul(_rational(self.c), _horner(self.psi),
                                         evaluate=False), evaluate=False))
        if self.m:
            factors.append(sp.Pow(_ONE_MINUS_U, -self.m, evaluate=False))
        expr = sp.Mul(*factors, _horner(self.p), evaluate=False)
        # lambdify's own numpy printer settings plus order "none" (see the
        # module docstring); a printer collects the modules its code imports,
        # so each call builds a fresh one
        printer = NumPyPrinter({"fully_qualified_modules": False, "inline": True,
                                "allow_unknown_functions": True, "user_functions": {},
                                "order": "none"})
        return sp.lambdify(_U, expr, modules=[{"exp": np.exp}], printer=printer,
                           docstring_limit=0)


class CompactMetric:
    """Rotationally invariant metric e^{2phi} on the sphere.

    ``psi_coeffs`` are the ascending rational coefficients of the profile
    polynomial psi(u).  psi = 0 is the Fubini-Study metric of curvature 4.
    K, K_{;zbar zbar} and K_{;zbar zbar z z} are derived once per metric, and
    the Calabi check on K is integrated once per metric and scheme.
    """

    def __init__(self, psi_coeffs: Sequence = ()):
        self.psi_coeffs = tuple(Fraction(c) for c in psi_coeffs)
        # w = (1 - u)^2 e^{2 psi}: c = 2, m = -2, p = 1
        self.w = RadialFunction(0, 2, -2, [1], self.psi_coeffs)
        self._calabi_k = {}  # QuadratureScheme -> CalabiCheck

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
        return RadialFunction(0, 0, 0, [Fraction(c) for c in coeffs], self.psi_coeffs)

    def taylor_chart(self, order: int) -> SurfaceChart:
        """Exact Taylor expansion of the metric at the chart center.

        The overall constant exp(2 psi(0)) is irrational in general and is
        dropped; every identity and sphericity quantity downstream is
        invariant under constant rescaling of e^{2phi}.
        """
        return SurfaceChart(self.w.taylor(order))


@dataclass(frozen=True)
class QuadratureScheme:
    """Composite 16-point Gauss-Legendre in u on ``radial_panels`` panels."""

    radial_panels: int = 4
    rel_tolerance: float = 1e-6

    def __post_init__(self):
        if self.radial_panels < 1:
            raise ValueError("need at least one radial panel (16 nodes)")


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


def _integral_once(integrand, metric: CompactMetric, panels: int) -> float:
    """One pass of the radial rule on ``panels`` panels: the integrand is
    called once, on the nodes u as a 1-D float array, and may return a scalar.
    w must be finite and positive at every node, and every integrand sample,
    weighted sample and their sum finite: a profile whose values leave the
    float range ends in one error that names a node z = sqrt(u / (1 - u)), not
    in NaN or inf."""
    u, du_w = _radial_rule(panels)

    def node_at(i):
        return complex(np.sqrt(u[i] / (1.0 - u[i])))

    def require(ok, what):
        if not np.all(ok):
            node = node_at(np.flatnonzero(~ok)[0])
            raise QuadratureEvaluationError(f"{what} at node z = {node}", node=node)

    with np.errstate(all="ignore"):
        w_u = np.asarray(metric.w.of_u(u), dtype=float)
        require(np.isfinite(w_u) & (w_u > 0.0), "e^{2phi} is not finite and positive")
        vals = np.broadcast_to(np.asarray(integrand(u), dtype=float), u.shape)
        require(np.isfinite(vals), "non-finite integrand sample")
        # area element: w * (i/2) dz ^ dzbar = w * r dr dtheta with
        # r dr = du / (2 (1-u)^2); the angular integral is 2 pi, outside the sum
        contrib = vals * du_w * w_u / (2.0 * (1.0 - u) ** 2)
        total = 2.0 * np.pi * float(np.sum(contrib))
    if not np.isfinite(total):  # a contribution is not finite, or the sum overflows
        require(np.isfinite(contrib), "non-finite weighted integrand")
        node = node_at(np.argmax(np.abs(contrib)))
        raise QuadratureEvaluationError(
            f"the weighted integrand sums to {total}, its largest term at node z = {node}",
            node=node,
        )
    return total


def integrate_surface(integrand, metric: CompactMetric, scheme: QuadratureScheme):
    """Area integral over the sphere chart of a circle-invariant integrand,
    with a one-step Richardson error estimate from doubling the radial panels;
    returns (value, error_estimate).

    The integrand is a real function of u = z zbar / (1 + z zbar), called on
    the float array of the radial nodes; its angular integral is 2 pi times
    its value."""
    coarse = _integral_once(integrand, metric, scheme.radial_panels)
    fine = _integral_once(integrand, metric, 2 * scheme.radial_panels)
    return fine, abs(fine - coarse)


@dataclass(frozen=True)
class CalabiCheck:
    lhs: float
    rhs: float
    relative_residual: float

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

    ``f`` is the string 'K' for the Gauss curvature, or a sequence of
    rational polynomial coefficients in u, circle invariant by construction.
    """
    if isinstance(f, str):
        if f != "K":
            raise ValueError(f"unknown function name {f!r}")
        if scheme not in metric._calabi_k:
            metric._calabi_k[scheme] = _calabi_integrals(
                metric.gauss_curvature, metric.k_zbar_zbar, metric.k_zbar_zbar_z_z,
                metric, scheme)
        return metric._calabi_k[scheme]
    rf = metric.radial_polynomial(f)
    fzz = metric.covariant_zbar_zbar(rf)
    return _calabi_integrals(rf, fzz, metric.raise_twice(fzz), metric, scheme)


def _calabi_integrals(rf, fzz, pf, metric: CompactMetric, scheme: QuadratureScheme):
    """Both sides of the identity on the fine pass of the scheme, as functions
    of u: |f_{;zbar zbar}|^2 = G(u)^2 (u / (1 - u))^k for fzz = z^k G, since
    |z|^2 = u / (1 - u), and f_{;zbar zbar z z} (f - f(0)), a product of two
    grade-0 functions multiplied in floats.  f_{;zbar zbar z z} dA is a
    divergence on the closed sphere, so its integral vanishes and f(0) does
    not change the rhs; subtracting it keeps the O(1) part of f, which would
    cancel only to rounding, out of the sum."""
    panels = 2 * scheme.radial_panels
    lhs = _integral_once(lambda u: fzz.of_u(u) ** 2 * (u / (1.0 - u)) ** fzz.k, metric, panels)
    rhs = _integral_once(lambda u: pf.of_u(u) * (rf.of_u(u) - rf.of_u(0.0)), metric, panels)
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return CalabiCheck(
        lhs=lhs,
        rhs=rhs,
        relative_residual=abs(lhs - rhs) / denom,
    )


# Least order of the Taylor chart behind rigidity_demo's cross-check
SYMBOLIC_ORDER = 12


@dataclass(frozen=True)
class RigidityReport:
    i2: float
    i4: float
    relative_gap: float
    closed_form_spherical: bool
    symbolic_spherical: bool

    @property
    def consistent(self) -> bool:
        return self.closed_form_spherical == self.symbolic_spherical


def rigidity_demo(metric: CompactMetric, scheme: QuadratureScheme) -> RigidityReport:
    """Quadrature realization of the compact rigidity mechanism.

    I2 = integral |K_{;zbar zbar}|^2 dA and I4 = integral P(K) K dA must
    agree; they are the Calabi check on K, integrated once per metric and
    scheme, and are reported as numbers.  The metric is spherical iff
    K_{;zbar zbar} vanishes, which its canonical closed form decides exactly:
    p is empty.  That verdict is cross-checked against the exact sphericity
    test on the Taylor expansion of the same metric at the chart center.

    K_{;zbar zbar} = z^2 e^{c psi} p(u) / (1 - u)^m with p_j the first nonzero
    coefficient, so r = -w^2 K_{;zbar zbar} / 12 starts at z^{2+j} zbar^j, and
    a chart of order 2j + 6 or more sees it: is_spherical reads r through
    order N - 4.
    """
    from .invariants import is_spherical
    from .surface import cartan_r

    check = calabi_identity_check("K", metric, scheme)
    p = metric.k_zbar_zbar.p
    j = next((i for i, a in enumerate(p) if a), 0)
    chart = metric.taylor_chart(max(SYMBOLIC_ORDER, 2 * j + 6))
    verdict = is_spherical(chart, cartan_r(chart).order)

    return RigidityReport(
        i2=check.lhs,
        i4=check.rhs,
        relative_gap=check.relative_residual,
        closed_form_spherical=not p,
        symbolic_spherical=verdict.spherical,
    )
