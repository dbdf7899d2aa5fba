"""Exact closed forms of rotationally invariant metrics on the sphere.

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

kept exactly as a Fraction coefficient list.  This module needs no float:
``quadrature`` evaluates the closed forms and integrates them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from numbers import Rational

from .gaussrat import Frozen
from .series import TruncatedSeries, exp_series
from .surface import SurfaceChart


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
    return out


class RadialFunction(Frozen):
    """The chart function z^k e^{c psi(u)} p(u) / (1 - u)^m.

    ``p`` holds the ascending rational coefficients of a polynomial and
    ``psi`` those of the profile.  The constructor brings them to canonical
    form: no factor (1 - u) left in p, c = 0 when psi = 0, and the zero
    function is p = () with c = m = 0.  For any other psi, constant or not,
    e^{c psi} with c != 0 is not in Q(u) (Lindemann-Weierstrass when psi is
    constant), so == is structural and the value is zero exactly when p is
    empty.
    """

    def __init__(self, k: int, c=0, m: int = 0, p=(), psi=()):
        psi, p = tuple(_trim(psi)), _trim(p)
        while p and not sum(p):
            # p = (1 - u) q with q_j = p_0 + ... + p_j
            p = list(accumulate(p))[:-1]
            m -= 1
        setattr_ = object.__setattr__
        setattr_(self, "k", k)
        setattr_(self, "c", Fraction(c) if p and psi else Fraction(0))
        setattr_(self, "m", m if p else 0)
        setattr_(self, "p", tuple(p))
        setattr_(self, "psi", psi)

    def _key(self) -> tuple:
        return self.k, self.c, self.m, self.p, self.psi

    def __eq__(self, other):
        if not isinstance(other, RadialFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "RadialFunction(k={}, c={!r}, m={}, p={!r}, psi={!r})".format(*self._key())

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
    def of_u(self) -> Callable:
        """G compiled once to a vectorized numpy function of u by
        ``quadrature.compile_radial``, from Horner source text; it loads
        numpy and sympy."""
        from .quadrature import compile_radial

        return compile_radial(self)


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
