"""Floating-point verification layer for the compact-manifold arguments.

The exact closed forms G = e^{c psi(u)} p(u) / (1 - u)^m of ``radial`` are
evaluated here.  Each evaluated G is compiled once per metric to a vectorized
numpy function of u from Python source that this module writes itself: the
Horner chains of p and psi in u, with every coefficient the float literal
nearest its exact value.  sympy's lambdify only compiles that text, so no sympy
expression is built or printed.  The code names only exp, so it is compiled
against exp alone, not against a copy of numpy's namespace.

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
from functools import lru_cache

import numpy as np
import sympy as sp

from .errors import QuadratureEvaluationError
from .invariants import is_spherical
from .radial import CompactMetric, RadialFunction
from .surface import cartan_r, per_chart


def _float_literal(num: int, den: int) -> str:
    """The source text of the float nearest num / den, which int true
    division rounds correctly."""
    try:
        return repr(num / den)
    except OverflowError:
        raise QuadratureEvaluationError(
            "a coefficient of a closed form is outside the float range "
            "(magnitude above 1.7976931348623157e+308)"
        ) from None


def _horner_source(p, den: int) -> str:
    """The Horner chain of p / den in u as source text, zero terms left out."""
    if not p:
        return "0"
    text = _float_literal(p[-1], den)
    for a in reversed(p[:-1]):
        text = f"u*({text})"
        if a:
            text = f"{text} + {_float_literal(a, den)}"
    return text


def compile_radial(f: RadialFunction) -> Callable[[np.ndarray], np.ndarray]:
    """f's G compiled to a vectorized numpy function of u: the zero function
    to the constant 0, any other G to the Horner chain of p, times
    exp(c psi) when c != 0 and times (1 - u)^-m when m != 0.  The source text
    is written here from the integer numerators of p and psi and names only
    exp, so lambdify compiles it against exp alone.  A coefficient beyond the
    float range raises ``QuadratureEvaluationError``."""
    factors = []
    if f.c:
        c = _float_literal(f.c.numerator, f.c.denominator)
        factors.append(f"exp({c}*({_horner_source(*f._psi)}))")
    if f.m:
        factors.append(f"(1 - u)**({-f.m})")
    text = "*".join([*factors, f"({_horner_source(f._num, f._den)})"])
    return sp.lambdify("u", text, modules=[{"exp": np.exp}], docstring_limit=0)


@per_chart
def _of_u(metric: CompactMetric, f: RadialFunction) -> Callable[[np.ndarray], np.ndarray]:
    """f's G compiled once per metric and closed-form value."""
    return compile_radial(f)


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


@lru_cache(maxsize=8)
def _radial_rule(panels: int):
    """Nodes and weights for composite Gauss-Legendre on u in [0, 1], built
    once per panel count; both arrays are read-only, so an integrand that
    writes to u raises instead of moving the nodes of later passes."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * _GL_NODES)
        weights.append(half * _GL_WEIGHTS)
    rule = np.concatenate(nodes), np.concatenate(weights)
    for array in rule:
        array.setflags(write=False)
    return rule


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
        w_u = np.asarray(_of_u(metric, metric.w)(u), dtype=float)
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
        return self.relative_residual < rel_tolerance


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
        return _calabi_k(metric, scheme)
    rf = metric.radial_polynomial(f)
    fzz = metric.covariant_zbar_zbar(rf)
    return _calabi_integrals(rf, fzz, metric.raise_twice(fzz), metric, scheme)


@per_chart
def _calabi_k(metric: CompactMetric, scheme: QuadratureScheme) -> CalabiCheck:
    """The Calabi check on K, integrated once per metric and scheme."""
    return _calabi_integrals(metric.gauss_curvature, metric.k_zbar_zbar,
                             metric.k_zbar_zbar_z_z, metric, scheme)


def _calabi_integrals(rf, fzz, pf, metric: CompactMetric, scheme: QuadratureScheme):
    """Both sides of the identity on the fine pass of the scheme, as functions
    of u: |f_{;zbar zbar}|^2 = G(u)^2 (u / (1 - u))^k for fzz = z^k G, since
    |z|^2 = u / (1 - u), and f_{;zbar zbar z z} (f - f(0)), a product of two
    grade-0 functions multiplied in floats.  f_{;zbar zbar z z} dA is a
    divergence on the closed sphere, so its integral vanishes and f(0) does
    not change the rhs; subtracting it keeps the O(1) part of f, which would
    cancel only to rounding, out of the sum.  A nonzero f_{;zbar zbar} makes
    both sides positive, so a side at 0.0 is a value that floats lost."""
    panels = 2 * scheme.radial_panels
    f2, f4, f = (_of_u(metric, g) for g in (fzz, pf, rf))
    lhs = _integral_once(lambda u: f2(u) ** 2 * (u / (1.0 - u)) ** fzz.k, metric, panels)
    rhs = _integral_once(lambda u: f4(u) * (f(u) - f(0.0)), metric, panels)
    if 0.0 in (lhs, rhs) and fzz.p:
        raise QuadratureEvaluationError(
            f"a side of the Calabi identity rounds to 0.0 in floats (lhs {lhs!r}, "
            f"rhs {rhs!r}) although f_{{;zbar zbar}} is not zero"
        )
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
