"""Gaussian rationals: exact complex numbers with rational real and imaginary parts.

These are the coefficient values at the API boundary (``series.coeffs``,
reports, files) and the fiber coordinate lambda.  The series core itself
computes on integer numerators over a common denominator.  All arithmetic is
exact; there is no rounding anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction

_RAT = (int, Fraction)


class GaussianRational:
    """An exact complex number re + im*i with re, im in Q.

    Instances are immutable and hashable. ``Fraction`` keeps numerators and
    denominators in canonical reduced form, so equality is structural.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RAT):
            return cls(value)
        return NotImplemented

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero GaussianRational")
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions ---------------------------------------------------------

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"
