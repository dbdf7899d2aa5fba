"""Truncated bivariate formal power series in (z, zbar) over Gaussian rationals.

A ``TruncatedSeries`` stores the coefficients of a series truncated at a
total-degree bound ``order``.  The ``order`` field records how far the
coefficients are *exact*: differentiation decrements it, because a derivative
of a truncation-exact input is exact only one order lower.  The infix
operators combining several series align to the minimum order, which is the
behaviour the geometry pipelines rely on.

All values are immutable after construction and all operations are pure
functions, so series can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import OrderMismatchError, SeriesDomainError
from .gaussrat import GaussianRational

_SCALARS = (int, Fraction, GaussianRational)


def _as_coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class TruncatedSeries:
    """Bivariate series sum_{k+l <= order} c_{kl} z^k zbar^l, exact coefficients.

    ``coeffs`` maps exponent pairs (k, l) to nonzero :class:`GaussianRational`
    values; zero coefficients are never stored.  ``real_flag`` is True iff the
    stored coefficients satisfy c_{kl} = conj(c_{lk}), i.e. the series
    represents a real-valued function; it is recomputed on construction so the
    claim can never drift from the data.
    """

    __slots__ = ("order", "coeffs", "real_flag")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        clean = {}
        if coeffs:
            for (k, l), value in coeffs.items():
                if k < 0 or l < 0:
                    raise ValueError(f"negative exponent pair {(k, l)}")
                if k + l > order:
                    raise ValueError(
                        f"exponent pair {(k, l)} exceeds truncation order {order}"
                    )
                value = _as_coeff(value)
                if value:
                    clean[(k, l)] = value
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "real_flag", self._check_real(clean))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @staticmethod
    def _check_real(coeffs) -> bool:
        for (k, l), value in coeffs.items():
            if coeffs.get((l, k)) != value.conjugate():
                return False
        return True

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls(order, {(0, 0): _as_coeff(value)})

    @classmethod
    def variable(cls, name: str, order: int) -> "TruncatedSeries":
        if name == "z":
            return cls(order, {(1, 0): GaussianRational(1)})
        if name in ("zbar", "zb"):
            return cls(order, {(0, 1): GaussianRational(1)})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def monomial(cls, k: int, l: int, value, order: int) -> "TruncatedSeries":
        return cls(order, {(k, l): _as_coeff(value)})

    # -- basic accessors -------------------------------------------------------

    def coeff(self, k: int, l: int) -> GaussianRational:
        return self.coeffs.get((k, l), GaussianRational(0))

    @property
    def constant_term(self) -> GaussianRational:
        return self.coeff(0, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def graded_items(self):
        """Coefficients in graded-lexicographic order (k+l, then k descending in l)."""
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))

    def truncated(self, order: int) -> "TruncatedSeries":
        """Lower the truncation order; raising it would claim false exactness."""
        if order > self.order:
            raise OrderMismatchError(
                f"cannot raise order {self.order} to {order}: higher coefficients unknown"
            )
        if order == self.order:
            return self
        return TruncatedSeries(
            order, {kl: c for kl, c in self.coeffs.items() if kl[0] + kl[1] <= order}
        )

    # -- arithmetic --------------------------------------------------------------

    def _align(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented, NotImplemented
        n = min(self.order, other.order)
        return self.truncated(n), other.truncated(n)

    def __add__(self, other):
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        coeffs = dict(a.coeffs)
        for kl, c in b.coeffs.items():
            coeffs[kl] = coeffs.get(kl, GaussianRational(0)) + c
        return TruncatedSeries(a.order, coeffs)

    def __sub__(self, other):
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        coeffs = dict(a.coeffs)
        for kl, c in b.coeffs.items():
            coeffs[kl] = coeffs.get(kl, GaussianRational(0)) - c
        return TruncatedSeries(a.order, coeffs)

    def __neg__(self):
        return TruncatedSeries(self.order, {kl: -c for kl, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = _as_coeff(other)
            if not c:
                return TruncatedSeries(self.order)
            return TruncatedSeries(
                self.order, {kl: v * c for kl, v in self.coeffs.items()}
            )
        a, b = self._align(other)
        if a is NotImplemented:
            return NotImplemented
        order = a.order
        out = {}
        for (k1, l1), c1 in a.coeffs.items():
            d1 = k1 + l1
            for (k2, l2), c2 in b.coeffs.items():
                if d1 + k2 + l2 > order:
                    continue
                kl = (k1 + k2, l1 + l2)
                prod = c1 * c2
                acc = out.get(kl)
                out[kl] = prod if acc is None else acc + prod
        return TruncatedSeries(order, out)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("series exponent must be an integer")
        if n < 0:
            return reciprocal(self) ** (-n)
        result = TruncatedSeries.constant(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structure ------------------------------------------------------------

    def conjugate(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.order, {(l, k): c.conjugate() for (k, l), c in self.coeffs.items()}
        )

    def diff(self, var: str) -> "TruncatedSeries":
        return differentiate(self, var)

    def evaluate(self, point) -> complex:
        return evaluate(self, point)

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero:
            body = "0"
        else:
            parts = []
            for (k, l), c in self.graded_items():
                mon = "".join([f"*z^{k}" if k else "", f"*zb^{l}" if l else ""])
                parts.append(f"({c}){mon}")
            body = " + ".join(parts)
        return f"TruncatedSeries(N={self.order}: {body})"


# -- module-level operation surface ------------------------------------------------


def differentiate(s: TruncatedSeries, var: str) -> TruncatedSeries:
    """Formal partial derivative; the result order drops to N - 1."""
    if s.order < 1:
        raise OrderMismatchError("cannot differentiate an order-0 series")
    out = {}
    if var == "z":
        for (k, l), c in s.coeffs.items():
            if k >= 1:
                out[(k - 1, l)] = c * k
    elif var in ("zbar", "zb"):
        for (k, l), c in s.coeffs.items():
            if l >= 1:
                out[(k, l - 1)] = c * l
    else:
        raise ValueError(f"unknown variable {var!r}")
    order = s.order - 1
    out = {kl: c for kl, c in out.items() if kl[0] + kl[1] <= order}
    return TruncatedSeries(order, out)


def conjugate(s: TruncatedSeries) -> TruncatedSeries:
    return s.conjugate()


def _compose_maclaurin(s: TruncatedSeries, taylor_coeffs) -> TruncatedSeries:
    """Sum a_j * s^j for a series s with zero constant term."""
    order = s.order
    acc = TruncatedSeries.constant(taylor_coeffs[0], order)
    power = TruncatedSeries.constant(1, order)
    for a in taylor_coeffs[1:]:
        power = power * s
        if power.is_zero:
            break
        if a:
            acc = acc + power * a
    return acc


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term (exp of a nonzero rational is irrational)."""
    if s.constant_term:
        raise SeriesDomainError("exp requires zero constant term for exactness")
    coeffs = [Fraction(1)]
    for j in range(1, s.order + 1):
        coeffs.append(coeffs[-1] / j)
    return _compose_maclaurin(s, coeffs)


def log1p_series(s: TruncatedSeries) -> TruncatedSeries:
    """log(1 + s) for a series s with zero constant term."""
    if s.constant_term:
        raise SeriesDomainError("log1p requires zero constant term")
    coeffs = [Fraction(0)]
    for j in range(1, s.order + 1):
        coeffs.append(Fraction((-1) ** (j + 1), j))
    return _compose_maclaurin(s, coeffs)


def reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """1/s via the geometric series; the constant term must be nonzero."""
    c = s.constant_term
    if not c:
        raise SeriesDomainError("reciprocal requires nonzero constant term")
    v = s * (GaussianRational(1) / c) - TruncatedSeries.constant(1, s.order)
    coeffs = [Fraction((-1) ** j) for j in range(s.order + 1)]
    return _compose_maclaurin(v, coeffs) * (GaussianRational(1) / c)


def _rational_sqrt(q: Fraction):
    """Exact square root of a positive rational, or None if irrational."""
    if q <= 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_series(s: TruncatedSeries) -> TruncatedSeries:
    """Square root; the constant term must be the square of a positive rational."""
    c = s.constant_term
    if c.im or c.re <= 0:
        raise SeriesDomainError("sqrt requires a positive rational constant term")
    root = _rational_sqrt(c.re)
    if root is None:
        raise SeriesDomainError(
            f"sqrt of constant term {c.re} is irrational; no exact representation"
        )
    v = s * (GaussianRational(1) / c) - TruncatedSeries.constant(1, s.order)
    # binomial coefficients C(1/2, j)
    coeffs = [Fraction(1)]
    for j in range(1, s.order + 1):
        coeffs.append(coeffs[-1] * (Fraction(1, 2) - (j - 1)) / j)
    return _compose_maclaurin(v, coeffs) * root


def evaluate(s: TruncatedSeries, point) -> complex:
    """Floating-point value at a chart point, summed in graded-lex order.

    The fixed summation order makes results reproducible bit-for-bit on a
    given platform.
    """
    z = complex(point)
    zb = z.conjugate()
    total = 0j
    for (k, l), c in s.graded_items():
        total += complex(c) * z**k * zb**l
    return total
