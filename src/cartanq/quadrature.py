"""Floating-point verification layer for the compact-manifold arguments.

The exact closed forms G = e^{c psi(u)} p(u) / (1 - u)^m of ``radial`` are
evaluated here.  sympy only generates code: each evaluated G is lambdified
once, so evaluation is vectorized numpy, and sympy pays for printing alone.
The expression is built unevaluated, the Horner chains of p and psi times
exp(c psi) and (1 - u)^-m, so sympy does no arithmetic on it: no flattening
of sums and products, no assumption queries and no canonical ordering.  The
symbol u carries no assumptions either.  lambdify gets docstring_limit=0, so
it does not render each expression to a string for a docstring, and the
numpy printer has order "none", so it prints sums and products in the order
they were built, which does not depend on string hashing, instead of sorting
them.  The code names only exp, so it is compiled against exp alone, not
against a copy of numpy's namespace.

Area integrals take circle-invariant integrands only, real functions of u:
the chart area's 1 and every integrand of the Calabi identity and of the
rigidity demo, |f_{;zbar zbar}|^2 and f_{;zbar zbar z z} f, which have grade
0.  The angular integral of such an integrand is 2 pi times its value at
|z| = sqrt(u / (1 - u)), so it is called once, on the float array of the nodes
of composite 16-point Gauss-Legendre in u.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter

from .errors import QuadratureEvaluationError
from .invariants import is_spherical
from .radial import CompactMetric, RadialFunction
from .surface import cartan_r

_U = sp.Symbol("u")


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


def compile_radial(f: RadialFunction) -> Callable[[np.ndarray], np.ndarray]:
    """f's G compiled to a vectorized numpy function of u: the zero function
    to the constant 0, any other G to its Horner chain times exp(c psi) when
    c != 0 and times (1 - u)^-m when m != 0.  The tree is built unevaluated,
    so sympy does no arithmetic on it, and its code names only exp, so it is
    compiled against exp alone.  ``RadialFunction.of_u`` caches the result
    on f."""
    # The printer splits a negative number that leads a product off it and
    # multiplies it back into a single remaining factor with evaluated
    # arithmetic, as in -2/3 * (1 - u); so u leads each Horner product,
    # and p's chain, which may be such a number, closes the outer one.
    factors = []
    if f.c:
        factors.append(sp.exp(sp.Mul(_rational(f.c), _horner(f.psi),
                                     evaluate=False), evaluate=False))
    if f.m:
        factors.append(sp.Pow(_ONE_MINUS_U, -f.m, evaluate=False))
    expr = sp.Mul(*factors, _horner(f.p), evaluate=False)
    # lambdify's own numpy printer settings plus order "none" (see the
    # module docstring); a printer collects the modules its code imports,
    # so each call builds a fresh one
    printer = NumPyPrinter({"fully_qualified_modules": False, "inline": True,
                            "allow_unknown_functions": True, "user_functions": {},
                            "order": "none"})
    return sp.lambdify(_U, expr, modules=[{"exp": np.exp}], printer=printer,
                       docstring_limit=0)


class QuadratureScheme(namedtuple("QuadratureScheme", "radial_panels rel_tolerance")):
    """Composite 16-point Gauss-Legendre in u on ``radial_panels`` panels."""

    __slots__ = ()

    def __new__(cls, radial_panels=4, rel_tolerance=1e-6):
        if radial_panels < 1:
            raise ValueError("need at least one radial panel (16 nodes)")
        return super().__new__(cls, radial_panels, rel_tolerance)

    @classmethod
    def _make(cls, iterable):
        # keeps _replace behind the panel check
        return cls(*iterable)


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


class CalabiCheck(namedtuple("CalabiCheck", "lhs rhs relative_residual")):
    __slots__ = ()

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


class RigidityReport(namedtuple(
    "RigidityReport", "i2 i4 relative_gap closed_form_spherical symbolic_spherical"
)):
    __slots__ = ()

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
