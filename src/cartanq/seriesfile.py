"""Exact coefficient-file round trip for TruncatedSeries.

Format (UTF-8 text):
    order N
    k l re_num/re_den im_num/im_den
    ...
one line per nonzero coefficient, integers in base 10.  Files are written in
graded-lexicographic order; unsorted files are accepted on read and
normalized on the next write.  No float ever enters the round trip.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import CoefficientFileError, digit_limit_message, int_digit_limit
from .gaussrat import GaussianRational
from .series import TruncatedSeries

# The digit strings of a rational in the subset of Fraction's grammar read
# here: ASCII digits, no underscores.  Fraction checks the rest of the syntax.
_RATIONAL_DIGITS = _re.compile(
    r"[-+]?([0-9]*)(?:\s*/\s*([0-9]+)|(?:\.([0-9]*))?(?:[eE]([-+]?)([0-9]+))?)"
)
# The digits of an integer: ASCII only, no underscores.
_INT_DIGITS = _re.compile(r"[-+]?([0-9]+)")


def read_int(text: str) -> int:
    """int(text) for a base-10 integer in ASCII digits without underscores,
    refused with OverflowError when it has more digits than the limit.  Other
    text raises ValueError with int's message."""
    m = _INT_DIGITS.fullmatch(text.strip())
    if not m:
        # int's own message, which cuts the repr at 200 characters
        raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    limit = int_digit_limit()
    if limit and len(m.group(1)) > limit:
        raise OverflowError(digit_limit_message(len(m.group(1))))
    return int(text)


def read_rational(text: str) -> Fraction:
    """Fraction(text) for text in ASCII digits without underscores, refused
    with OverflowError before it is built when one of its digit strings, or
    the numerator or denominator it makes as written (exponent included,
    before reduction), has more digits than the limit.  Other bad syntax
    raises ValueError or ZeroDivisionError, as in Fraction."""
    m = _RATIONAL_DIGITS.fullmatch(text.strip())
    if not m:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    limit = int_digit_limit()
    if limit:
        num, den, dec, sign, exp = m.groups("")
        sizes = [len(num), len(den), len(dec), len(exp)]
        if max(sizes) <= limit and not den:
            e = int(sign + exp) if exp else 0
            sizes += [len(num) + len(dec) + max(e, 0), 1 + len(dec) + max(-e, 0)]
        for size in sizes:
            if size > limit:
                raise OverflowError(digit_limit_message(size))
    return Fraction(text)


def _format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def dumps(s: TruncatedSeries) -> str:
    lines = [f"order {s.order}"]
    for (k, l), c in s.coeffs.items():
        lines.append(
            f"{k} {l} {_format_rational(c.re)} {_format_rational(c.im)}"
        )
    return "\n".join(lines) + "\n"


def loads(text: str) -> TruncatedSeries:
    lines = text.splitlines()
    if not lines:
        raise CoefficientFileError("empty file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "order":
        raise CoefficientFileError("expected header 'order N'", lineno=1)
    try:
        order = read_int(header[1])
    except OverflowError as exc:
        raise CoefficientFileError(str(exc), lineno=1) from None
    except ValueError:
        raise CoefficientFileError(f"bad order {header[1]!r}", lineno=1) from None
    if order < 0:
        raise CoefficientFileError("order must be non-negative", lineno=1)

    coeffs = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise CoefficientFileError(
                f"expected 'k l re im', got {line!r}", lineno=lineno
            )
        try:
            k, l = read_int(parts[0]), read_int(parts[1])
            re, im = read_rational(parts[2]), read_rational(parts[3])
        except (ValueError, ArithmeticError) as exc:
            raise CoefficientFileError(str(exc), lineno=lineno) from None
        if k < 0 or l < 0:
            raise CoefficientFileError(f"negative exponents {(k, l)}", lineno=lineno)
        if k + l > order:
            raise CoefficientFileError(
                f"degree {k + l} of pair {(k, l)} exceeds order {order}", lineno=lineno
            )
        if (k, l) in coeffs:
            raise CoefficientFileError(
                f"duplicate exponent pair {(k, l)}", lineno=lineno
            )
        coeffs[(k, l)] = GaussianRational(re, im)
    return TruncatedSeries(order, coeffs)


def read_series(path) -> TruncatedSeries:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CoefficientFileError(
            f"not UTF-8 text: byte {data[exc.start]:#04x}",
            lineno=data.count(b"\n", 0, exc.start) + 1,
        ) from None
    return loads(text)
