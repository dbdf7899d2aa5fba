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

kept exactly as integer numerators of p and psi, each list over one positive
common denominator.  This module needs no float: ``quadrature`` evaluates the
closed forms and integrates them.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest
from math import gcd, lcm
from numbers import Rational

from .gaussrat import Frozen
from .series import TruncatedSeries, _series, _size, exp_series
from .surface import SurfaceChart


# -- ascending integer coefficient lists -----------------------------------------------


def _ratios(values) -> tuple:
    """Numerators of ``values`` (trailing zeros trimmed, gcd 1) over their lcm denominator."""
    values = [Fraction(a) for a in values]
    while values and not values[-1]:
        values.pop()
    den = lcm(1, *(a.denominator for a in values))
    return tuple(a.numerator * (den // a.denominator) for a in values), den


def _padd(p, q) -> list:
    return [a + b for a, b in zip_longest(p, q, fillvalue=0)]


def _pscale(p, s: int) -> list:
    return [s * a for a in p]


def _pmul(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _times_one_minus_u(p, n: int) -> list:
    for _ in range(n):
        p = [a - b for a, b in zip([*p, 0], [0, *p])]
    return p


def _in_rho(p, m: int, size: int) -> list:
    """p(u) (1 + rho)^m below rho^size, with u = rho / (1 + rho): the sum of
    p_i rho^i (1 + rho)^(m - i), from the binomial rows C(m - i, t), exactly."""
    row = list(accumulate(range(1, size), lambda b, t: b * (m - t + 1) // t, initial=1))
    out = [0] * size
    for i, a in enumerate(p[:size]):
        for t, b in enumerate(row[:size - i]):
            out[i + t] += a * b
        row = list(accumulate(row, lambda prev, b: b - prev))  # C(m - i - 1, t)
    return out


def _diagonal(order: int, k: int, den: int, coeffs, l: int = 1) -> TruncatedSeries:
    """The series of sum_j coeffs[j] z^(k + j) zbar^(l j) / den, l = 0 or 1."""
    re = [0] * _size(k + (1 + l) * len(coeffs) - l)
    for j, a in enumerate(coeffs):
        re[_size(k + (1 + l) * j) + l * j] = a
    return _series(order, den, re, None)


class RadialFunction(Frozen):
    """The chart function z^k e^{c psi(u)} p(u) / (1 - u)^m.

    ``p`` and ``psi`` read as ascending ``Fraction`` coefficients of a
    polynomial and of the profile; each is stored as integer numerators over
    one positive denominator (``_num``/``_den``, the pair ``_psi``), gcd 1, no
    trailing zero.  Canonical form: no factor (1 - u) left in p, c = 0 when
    psi = 0, and the zero function is p = () with c = m = 0.  For any other
    psi, e^{c psi} with c != 0 is not in Q(u) (Lindemann-Weierstrass when psi
    is constant), so == is structural and the value is zero iff p is empty.
    """

    def __init__(self, k: int, c=0, m: int = 0, p=(), psi=()):
        self._assign(k, Fraction(c), m, *_ratios(p), _ratios(psi))

    def _assign(self, k: int, c: Fraction, m: int, num, den: int, psi: tuple):
        """Store z^k e^{c psi} (num / den) / (1 - u)^m in canonical form; returns self."""
        g = gcd(den, *num)
        num, den = [a // g for a in num], den // g
        while num and not num[-1]:
            num.pop()
        while num and not sum(num):  # p = (1 - u) q with q_j = p_0 + ... + p_j
            num = list(accumulate(num))[:-1]
            m -= 1
        self.__dict__.update(k=k, c=c if num and psi[0] else Fraction(0), m=m if num else 0,
                             _num=tuple(num), _den=den, _psi=psi)
        return self

    p = cached_property(lambda self: tuple(Fraction(a, self._den) for a in self._num))
    psi = cached_property(lambda self: tuple(Fraction(a, self._psi[1]) for a in self._psi[0]))

    def _key(self) -> tuple:
        return self.k, self.c, self.m, self._num, self._den, self._psi

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, RadialFunction) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"RadialFunction(k={self.k}, c={self.c!r}, m={self.m}, p={self.p!r}, "
                f"psi={self.psi!r})")

    def _check_profile(self, other: "RadialFunction"):
        if other._psi is not self._psi and other._psi != self._psi:
            raise ValueError("radial functions of different profiles psi")

    def _with(self, k: int, c: Fraction, m: int, num, den: int) -> "RadialFunction":
        """The function z^k e^{c psi} (num / den) / (1 - u)^m of this profile."""
        return object.__new__(RadialFunction)._assign(k, c, m, num, den, self._psi)

    def __mul__(self, other):
        if isinstance(other, RadialFunction):
            self._check_profile(other)
            return self._with(self.k + other.k, self.c + other.c, self.m + other.m,
                              _pmul(self._num, other._num), self._den * other._den)
        if isinstance(other, Rational):
            return self._with(self.k, self.c, self.m, _pscale(self._num, other.numerator),
                              self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            return self * (1 / Fraction(other))
        if not isinstance(other, RadialFunction):
            return NotImplemented
        self._check_profile(other)
        if len(other._num) != 1:
            raise ValueError("can only divide by e^{c psi} a (1-u)^m with a a nonzero "
                             "constant, such as a power of w")
        a = other._num[0]
        return self._with(self.k - other.k, self.c - other.c, self.m - other.m,
                          _pscale(self._num, other._den if a > 0 else -other._den),
                          self._den * abs(a))

    def __add__(self, other):
        if not isinstance(other, RadialFunction) or other.k != self.k:
            raise ValueError("can only add radial functions of equal z-grade")
        self._check_profile(other)
        if not (self._num and other._num):
            return self if self._num else other
        if other.c != self.c:
            raise ValueError("can only add radial functions of equal weight c")
        m = max(self.m, other.m)
        g = gcd(self._den, other._den)
        p = _padd(_pscale(_times_one_minus_u(self._num, m - self.m), other._den // g),
                  _pscale(_times_one_minus_u(other._num, m - other.m), self._den // g))
        return self._with(self.k, self.c, m, p, self._den * (other._den // g))

    def __sub__(self, other):
        if not isinstance(other, RadialFunction):
            raise ValueError("can only subtract radial functions of equal z-grade")
        return self + (-other)

    def __neg__(self):
        return self * -1

    def _slope(self) -> tuple:
        """(q, den), where G' = e^{c psi} (q / den) / (1 - u)^(m + 1)."""
        num, (psi, e) = self._num, self._psi
        a, b = self.c.numerator, (self.c.denominator * e if self.c else 1)
        cp = _pscale(_pmul([j * s for j, s in enumerate(psi)][1:], num), a) if a else []
        q = _times_one_minus_u(_padd(cp, [j * b * x for j, x in enumerate(num)][1:]), 1)
        return _padd(q, _pscale(num, self.m * b)), self._den * b

    def d(self) -> "RadialFunction":
        q, den = self._slope()
        p = _padd(_pscale(self._num, self.k * (den // self._den)), [0, *q])
        return self._with(self.k - 1, self.c, self.m, p, den)

    def dbar(self) -> "RadialFunction":
        return self._with(self.k + 1, self.c, self.m - 1, *self._slope())

    def taylor(self, order: int) -> TruncatedSeries:
        """The exact series at the chart center of this value divided by
        e^{c psi(0)}, a constant that is irrational in general.

        With rho = z zbar, u = rho / (1 + rho) and 1 / (1 - u) = 1 + rho, the
        quotient is z^k p(u) (1 + rho)^m e^{c (psi(u) - psi(0))}: a power
        series in rho alone, times the exponential when c != 0 and psi is
        not constant.
        """
        if self.k < 0:
            raise ValueError(f"cannot expand z^{self.k} G(u): negative z-grade")
        n = (order - self.k) // 2  # z^k rho^j has total degree k + 2j
        if n < 0:
            return TruncatedSeries(order)
        # in rho alone, held as z: rho^j -> z^j is exact below degree n + 1
        series = _diagonal(n, 0, self._den, _in_rho(self._num, self.m, n + 1), l=0)
        psi, e = self._psi
        if self.c and len(psi) > 1:
            rel = _in_rho((0, *psi[1:]), 0, n + 1)
            a, b = self.c.numerator, self.c.denominator
            series = series * exp_series(_diagonal(n, 0, b * e, _pscale(rel, a), l=0))
        coeffs = [series._re[_size(j)] for j in range(series._rows)]
        return _diagonal(order, self.k, series._den, coeffs)


class CompactMetric:
    """Rotationally invariant metric e^{2phi} on the sphere.

    ``psi_coeffs`` are the ascending rational coefficients of the profile
    polynomial psi(u).  psi = 0 is the Fubini-Study metric of curvature 4.
    K, K_{;zbar zbar} and K_{;zbar zbar z z} are derived once per metric;
    ``quadrature`` keeps its compiled evaluators and the Calabi check on K in
    ``_cache``.
    """

    def __init__(self, psi_coeffs: Sequence = ()):
        self.psi_coeffs = tuple(Fraction(c) for c in psi_coeffs)
        # w = (1 - u)^2 e^{2 psi}: c = 2, m = -2, p = 1
        self.w = RadialFunction(0, 2, -2, [1], self.psi_coeffs)
        self._cache = {}

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
        return self.w._with(0, Fraction(0), 0, *_ratios(coeffs))

    def taylor_chart(self, order: int) -> SurfaceChart:
        """Exact Taylor expansion of the metric at the chart center.

        The overall constant exp(2 psi(0)) is irrational in general and is
        dropped; every identity and sphericity quantity downstream is
        invariant under constant rescaling of e^{2phi}.
        """
        return SurfaceChart(self.w.taylor(order))
