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

from fractions import Fraction

from .errors import CoefficientFileError
from .gaussrat import GaussianRational
from .series import TruncatedSeries


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
        order = int(header[1])
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
            k, l = int(parts[0]), int(parts[1])
            re, im = Fraction(parts[2]), Fraction(parts[3])
        except (ValueError, ZeroDivisionError) as exc:
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


def write_series(path, s: TruncatedSeries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(s))


def read_series(path) -> TruncatedSeries:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
