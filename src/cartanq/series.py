"""Truncated bivariate formal power series in (z, zbar) over Gaussian rationals.

A ``TruncatedSeries`` stores the coefficients of a series truncated at a
total-degree bound ``order``.  The ``order`` field records how far the
coefficients are *exact*: differentiation decrements it, because a derivative
of a truncation-exact input is exact only one order lower.  The infix
operators combining several series align to the minimum order, which is the
behaviour the geometry pipelines rely on.

Layout.  A series is ``(re + i im) / den``: one positive common denominator
and lists of integer numerators for the real and the imaginary parts (``im``
is ``None`` when every coefficient is real).  The lists are graded: the
coefficient of z^k zbar^l sits at index d(d+1)/2 + l with d = k + l, so
lowering the order is a prefix slice.  The lists end at the highest degree
with a nonzero coefficient, and the gcd of ``den`` and every numerator is 1,
so the layout is canonical and ``==`` and ``hash`` are structural.  All
arithmetic works on the integers; ``GaussianRational`` values are built only
at the boundary (``coeffs``, ``coeff``, ``constant_term``).

Products are short products (Mulders, "On short multiplications and
divisions", AAECC 11, 2000): no degree above N is ever formed.  Within a
degree row, Kronecker substitution (Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", JSC 44, 2009) packs the coefficient
of (d - l, l) into slot l of one integer, so the product of rows i and j is
row i + j, and output row d is the sum over i of row i times row d - i.

The elementary functions are Newton iterations that double the exact order
at each step (Brent and Kung, "Fast algorithms for manipulating formal power
series", JACM 25, 1978), so they cost O(log N) products, most of them short.
log and exp use the Euler operator E = z d/dz + zbar d/dzbar, which multiplies
the degree-d part by d: E log f = E f / f.

All values are immutable after construction (``coeffs`` is cached on first
use, but depends only on the numerators) and all operations are pure
functions, so series can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from types import MappingProxyType

from .errors import OrderMismatchError, SeriesDomainError
from .gaussrat import Frozen, GaussianRational

_SCALARS = (int, Fraction, GaussianRational)


def _as_coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


def _size(rows: int) -> int:
    """Length of a graded list holding the degrees 0 .. rows - 1."""
    return rows * (rows + 1) // 2


def _rows(size: int) -> int:
    """Inverse of :func:`_size`."""
    return (isqrt(8 * size + 1) - 1) // 2


# -- integer kernels ----------------------------------------------------------------


@lru_cache(maxsize=128)
def _diff_table(var: str, rows: int):
    """Source indices and factors of d/dz (or d/dzbar) on a graded list of
    ``rows`` degrees, listed in the order of the graded result."""
    index, factor = [], []
    for d in range(1, rows):
        base = _size(d)
        for l in range(d):
            if var == "z":
                index.append(base + l)
                factor.append(d - l)
            else:
                index.append(base + l + 1)
                factor.append(l + 1)
    return tuple(index), tuple(factor)


@lru_cache(maxsize=64)
def _conj_table(rows: int):
    """Index of (l, k) for every (k, l) of a graded list of ``rows`` degrees."""
    return tuple(_size(d) + d - l for d in range(rows) for l in range(d + 1))


@lru_cache(maxsize=1024)
def _offset(nbytes: int, slots: int) -> int:
    """The packed integer with the value 2**(8 nbytes - 1) in every slot; the
    memo holds rows of up to 65 slots for 15 slot widths."""
    return int.from_bytes((1 << (8 * nbytes - 1)).to_bytes(nbytes, "little") * slots, "little")


def _pack_rows(xs, rows: int, nbytes: int):
    """One integer per degree row d < rows, sum_l xs[(d, l)] 2**(8 nbytes l),
    cut from one buffer of byte slots offset to be non-negative; an all-zero
    row packs to 0, which the unpacking skips."""
    half = 1 << (8 * nbytes - 1)
    buf = b"".join(map(int.to_bytes, map(half.__add__, xs), repeat(nbytes), repeat("little")))
    return [int.from_bytes(buf[d * (d + 1) // 2 * nbytes:(d + 1) * (d + 2) // 2 * nbytes],
                           "little") - _offset(nbytes, d + 1) for d in range(rows)]


def _short(xs, ys, rows: int):
    """Rows d < rows of the product of two row lists: sum_i xs[i] ys[d - i].
    A square (ys is xs) forms each cross product once: twice the sum over
    i < d - i, plus xs[d / 2] squared when d is even."""
    m, ry = len(ys), ys[::-1]
    if ys is not xs:
        return [sum(map(mul, xs[max(0, d - m + 1):d + 1], ry[max(0, m - 1 - d):]))
                for d in range(rows)]
    out = []
    for d in range(rows):
        lo, hi = max(0, d - m + 1), (d + 1) // 2
        s = 2 * sum(map(mul, xs[lo:hi], ry[m - 1 - d + lo:]))
        out.append(s + xs[hi] ** 2 if d % 2 == 0 and hi < m else s)
    return out


def _unpack_rows(packed, nbytes: int):
    """Graded list of the slots of packed rows.  With the offset added every
    slot of a row is non-negative, so one ``to_bytes`` splits the row."""
    half = 1 << (8 * nbytes - 1)
    from_bytes = int.from_bytes
    out = []
    for d, value in enumerate(packed, 1):
        if value:
            buf = (value + _offset(nbytes, d)).to_bytes(d * nbytes, "little")
            out += [from_bytes(buf[p:p + nbytes], "little") - half
                    for p in range(0, len(buf), nbytes)]
        else:
            out += [0] * d
    return out


def _lincomb(fx: int, xs, fy: int, ys, size: int):
    """fx * xs + fy * ys, with ``None`` or a shorter list read as zeros."""
    xs = xs or ()
    ys = ys or ()
    if len(xs) < len(ys):
        fx, xs, fy, ys = fy, ys, fx, xs
    out = [fx * x + fy * y for x, y in zip(xs, ys)]
    out += [fx * x for x in xs[len(ys):]]
    out += [0] * (size - len(out))
    return out


def _bound(xs, ys) -> int:
    """Largest absolute value in two numerator lists (``ys`` may be None)."""
    top = max(map(abs, xs))
    if ys:
        top = max(top, max(map(abs, ys)))
    return top


def _series(order: int, den: int, re, im) -> "TruncatedSeries":
    """The canonical series (re + i im) / den of the given order."""
    s = object.__new__(TruncatedSeries)
    s._assign(order, den, re, im)
    return s


class TruncatedSeries(Frozen):
    """Bivariate series sum_{k+l <= order} c_{kl} z^k zbar^l, exact coefficients.

    ``coeffs`` is a read-only mapping from exponent pairs (k, l) to nonzero
    :class:`GaussianRational` values, built on first access; zero
    coefficients never appear in it.  ``real_flag`` is True iff
    c_{kl} = conj(c_{lk}) for all (k, l), i.e. the series represents a
    real-valued function; it compares the series with its conjugate on each
    call, so the claim can never drift from the data.
    """

    __slots__ = ("order", "_den", "_re", "_im", "_rows", "_coeffs")

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
        den = lcm(1, *(q.denominator for c in clean.values() for q in (c.re, c.im)))
        size = _size(max((k + l for k, l in clean), default=-1) + 1)
        re, im = [0] * size, [0] * size
        for (k, l), c in clean.items():
            i = _size(k + l) + l
            re[i] = c.re.numerator * (den // c.re.denominator)
            im[i] = c.im.numerator * (den // c.im.denominator)
        self._assign(order, den, re, im)

    def _assign(self, order: int, den: int, re, im):
        """Store (re + i im) / den in canonical form: no all-zero ``im``, no
        trailing zero degree, gcd(den, numerators) = 1."""
        if im is not None and not any(im):
            im = None
        n = len(re)
        while n and not re[n - 1] and not (im and im[n - 1]):
            n -= 1
        rows = _rows(n - 1) + 1 if n else 0
        n = _size(rows)
        if n < len(re):
            re = re[:n]
            im = im[:n] if im else None
        g = gcd(den, *re, *im) if im else gcd(den, *re)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [x // g for x in im] if im else None
        setattr_ = object.__setattr__
        setattr_(self, "order", order)
        setattr_(self, "_den", den)
        setattr_(self, "_re", re)
        setattr_(self, "_im", im)
        setattr_(self, "_rows", rows)
        setattr_(self, "_coeffs", None)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls(order, {(0, 0): _as_coeff(value)})

    # -- basic accessors -------------------------------------------------------

    def _value(self, i: int) -> GaussianRational:
        im = self._im[i] if self._im else 0
        return GaussianRational(Fraction(self._re[i], self._den), Fraction(im, self._den))

    @property
    def coeffs(self):
        """Read-only mapping (k, l) -> nonzero GaussianRational, in graded order."""
        if self._coeffs is None:
            items = {}
            re, im = self._re, self._im
            for d in range(self._rows):
                base = _size(d)
                for l in range(d, -1, -1):
                    i = base + l
                    if re[i] or (im and im[i]):
                        items[(d - l, l)] = self._value(i)
            object.__setattr__(self, "_coeffs", MappingProxyType(items))
        return self._coeffs

    def coeff(self, k: int, l: int) -> GaussianRational:
        if k < 0 or l < 0 or k + l >= self._rows:
            return GaussianRational(0)
        return self._value(_size(k + l) + l)

    @property
    def constant_term(self) -> GaussianRational:
        return self.coeff(0, 0)

    @property
    def is_zero(self) -> bool:
        return not self._re

    @property
    def real_flag(self) -> bool:
        return self == self.conjugate()

    def _lists(self, order: int):
        """Numerator lists cut to total degree <= order, and their row count."""
        if self._rows <= order + 1:
            return self._re, self._im, self._rows
        n = _size(order + 1)
        return self._re[:n], (self._im[:n] if self._im else None), order + 1

    def truncated(self, order: int) -> "TruncatedSeries":
        """Lower the truncation order; raising it would claim false exactness."""
        if order > self.order:
            raise OrderMismatchError(
                f"cannot raise order {self.order} to {order}: higher coefficients unknown"
            )
        if order == self.order:
            return self
        re, im, _ = self._lists(order)
        return _series(order, self._den, re, im)

    # -- arithmetic --------------------------------------------------------------

    def _combine(self, other, sign: int):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        ar, ai, _ = self._lists(order)
        br, bi, _ = other._lists(order)
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, self._den // g
        size = max(len(ar), len(br))
        re = _lincomb(fa, ar, sign * fb, br, size)
        im = None if ai is None and bi is None else _lincomb(fa, ai, sign * fb, bi, size)
        return _series(order, self._den * fa, re, im)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._scaled(-1)

    def _scaled(self, c) -> "TruncatedSeries":
        """Product with the scalar c = (p + i q) / r."""
        if isinstance(c, int):
            p, q, r = c, 0, 1
        elif isinstance(c, Fraction):
            p, q, r = c.numerator, 0, c.denominator
        else:
            c = _as_coeff(c)
            r = lcm(c.re.denominator, c.im.denominator)
            p = c.re.numerator * (r // c.re.denominator)
            q = c.im.numerator * (r // c.im.denominator)
        re, im = self._re, self._im
        if not q:
            new_re = [p * x for x in re]
            new_im = [p * y for y in im] if im else None
        else:
            new_re = _lincomb(p, re, -q, im, len(re))
            new_im = _lincomb(q, re, p, im, len(re))
        return _series(self.order, self._den * r, new_re, new_im)

    def __mul__(self, other):
        """Product at the lower of the two orders, or product by a scalar.

        Cost: each sum over rows makes at most rows (rows + 1) / 2 row
        products, each of two integers of at most rows * nbytes bytes; real
        by complex takes 2 sums and complex by complex 3 (Gauss's trick).  A
        square (other is self) forms each cross row product once."""
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        ar, ai, ra = self._lists(order)
        br, bi, rb = other._lists(order)
        if not ra or not rb:
            return _series(order, 1, [], None)
        rows = min(order + 1, ra + rb - 1)
        # a slot sums at most min(|a|, |b|) products of numerators (two such
        # sums for complex by complex), plus one bit for the sign
        width = (
            _bound(ar, ai).bit_length()
            + _bound(br, bi).bit_length()
            + min(len(ar), len(br)).bit_length()
            + (2 if ai and bi else 1)
        )
        nbytes = (width + 7) // 8
        pa = _pack_rows(ar, ra, nbytes)
        pb = pa if other is self else _pack_rows(br, rb, nbytes)
        pai = _pack_rows(ai, ra, nbytes) if ai else None
        pbi = (pai if other is self else _pack_rows(bi, rb, nbytes)) if bi else None
        re = _short(pa, pb, rows)
        if pai is None and pbi is None:
            im = None
        elif pbi is None:
            im = _short(pai, pb, rows)
        elif pai is None:
            im = _short(pa, pbi, rows)
        else:
            ii = _short(pai, pbi, rows)
            sa = list(map(add, pa, pai))
            im = _short(sa, sa if other is self else list(map(add, pb, pbi)), rows)
            im = [s - x - y for s, x, y in zip(im, re, ii)]
            re = list(map(sub, re, ii))
        re = _unpack_rows(re, nbytes)
        im = None if im is None else _unpack_rows(im, nbytes)
        return _series(order, self._den * other._den, re, im)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("series exponent must be an integer")
        if n < 0:
            return reciprocal(self) ** (-n)
        if n <= 1:
            return self if n else TruncatedSeries.constant(1, self.order)
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

    # -- structure ------------------------------------------------------------

    def conjugate(self) -> "TruncatedSeries":
        perm = _conj_table(self._rows)
        re = [self._re[i] for i in perm]
        im = [-self._im[i] for i in perm] if self._im else None
        return _series(self.order, self._den, re, im)

    def diff(self, var: str) -> "TruncatedSeries":
        return differentiate(self, var)

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.order == other.order
            and self._den == other._den
            and self._re == other._re
            and self._im == other._im
        )

    def __hash__(self):
        im = tuple(self._im) if self._im else None
        return hash((self.order, self._den, tuple(self._re), im))

    def __repr__(self):
        if self.is_zero:
            body = "0"
        else:
            parts = []
            for (k, l), c in self.coeffs.items():
                mon = "".join([f"*z^{k}" if k else "", f"*zb^{l}" if l else ""])
                parts.append(f"({c}){mon}")
            body = " + ".join(parts)
        return f"TruncatedSeries(N={self.order}: {body})"


# -- module-level operation surface ------------------------------------------------


def differentiate(s: TruncatedSeries, var: str) -> TruncatedSeries:
    """Formal partial derivative; the result order drops to N - 1."""
    if s.order < 1:
        raise OrderMismatchError("cannot differentiate an order-0 series")
    if var not in ("z", "zbar"):
        raise ValueError(f"unknown variable {var!r}")
    index, factor = _diff_table(var, s._rows)
    re = list(map(mul, factor, map(s._re.__getitem__, index)))
    im = list(map(mul, factor, map(s._im.__getitem__, index))) if s._im else None
    return _series(s.order - 1, s._den, re, im)


def _start(s: TruncatedSeries) -> int:
    """The order to which a function of s(0) alone is exact: one below the
    lowest degree of s - s(0) with a nonzero coefficient."""
    re, im = s._re, s._im
    i = next((i for i in range(1, len(re)) if re[i] or (im and im[i])), None)
    return s.order if i is None else min(_rows(i) - 1, s.order)


def _lift(s: TruncatedSeries, order: int, keep: int) -> TruncatedSeries:
    """The degrees <= keep of s as a series of the given order, for a factor
    whose higher degrees only reach degrees of the product that are not read."""
    re, im, _ = s._lists(keep)
    return _series(order, s._den, re, im)


def _plus(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """s + k for an integer k."""
    re = list(s._re) or [0]
    re[0] += k * s._den
    return _series(s.order, s._den, re, s._im)


@lru_cache(maxsize=64)
def _degrees(rows: int):
    """Total degree of every index of a graded list of ``rows`` degrees."""
    return tuple(d for d in range(rows) for _ in range(d + 1))


def _euler(s: TruncatedSeries, inverse: bool = False) -> TruncatedSeries:
    """E s = z ds/dz + zbar ds/dzbar, the degree-d part times d, or with
    ``inverse`` E^-1 of a series without constant term; both keep the order."""
    factor, den = _degrees(s._rows), s._den
    if inverse:
        top = lcm(*factor[1:])
        factor, den = [top // d if d else 0 for d in factor], den * top
    re = list(map(mul, factor, s._re))
    return _series(s.order, den, re, list(map(mul, factor, s._im)) if s._im else None)


def _newton(order: int, x: TruncatedSeries, step) -> TruncatedSeries:
    """Newton iteration from x, exact to its own order m: x becomes
    step(x, m, n), exact to n = min(2m + 1, order), until n = order.  A step
    adds x times a correction that is O(m + 1), so only the degrees of x up
    to n - m - 1 enter that product."""
    while x.order < order:
        m = x.order
        n = min(2 * m + 1, order)
        x = step(_lift(x, n, m), m, n)
    return x


def _reciprocal_from(f: TruncatedSeries, x: TruncatedSeries) -> TruncatedSeries:
    """1/f from x, exact to the order of x, by the Newton step
    x <- x (2 - f x): with f x = 1 + O(m + 1) the error becomes O(2m + 2)."""
    def step(x, m, n):
        return x - _lift(x, n, n - m - 1) * _plus(f * x, -1)

    return _newton(f.order, x, step)


def reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """1/s by Newton iteration from 1/s(0); the constant term must be nonzero.
    At order N it makes at most 2 (floor(log2 N) + 1) series products."""
    c = s.constant_term
    if not c:
        raise SeriesDomainError("reciprocal requires nonzero constant term")
    return _reciprocal_from(s, TruncatedSeries.constant(1 / c, _start(s)))


def log1p_series(s: TruncatedSeries) -> TruncatedSeries:
    """log(1 + s) = E^-1(E s / (1 + s)) for a series s with zero constant term."""
    if s.constant_term:
        raise SeriesDomainError("log1p requires zero constant term")
    return _euler(_euler(s) * reciprocal(_plus(s, 1)), inverse=True)


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term (exp of a nonzero rational is
    irrational), by the Newton iteration g <- g (1 + s - log g).

    With g = exp(s) + O(m + 1) and h = 1/g + O(m + 1), E(s - log g) =
    (g E s - E g) / g is O(m + 1), so it equals h (g E s - E g) to order
    2m + 1; h follows g by one step of the reciprocal iteration."""
    if s.constant_term:
        raise SeriesDomainError("exp requires zero constant term for exactness")
    es = _euler(s)
    h = TruncatedSeries.constant(1, _start(s))

    def step(g, m, n):
        nonlocal h
        t = _euler(_lift(h, n, n - m - 1) * (g * es - _euler(g)), inverse=True)
        g = g + _lift(g, n, n - m - 1) * t
        h = _reciprocal_from(g, h) if n < s.order else h
        return g

    return _newton(s.order, h, step)

