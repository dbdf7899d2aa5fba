"""Expression parser for exact series input.

Grammar (whitespace-insensitive):
    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | 'z' | 'zb' | 'exp' '(' expr ')' | 'log' '(' expr ')'
              | '(' expr ')'
    INT    := [0-9]+

Parentheses nest at most MAX_NESTING deep, so parsing needs a bounded stack.

Rational literals like 1/10 come out of the '/' operator on constants, which
is exact.  'log' requires an argument with constant term 1; '/' requires a
divisor with nonzero constant term; '^' accepts any integer exponent as long
as the reciprocal is legal when it is negative.

Numbers are bounded by CPython's limit on the digits of an integer string
(sys.get_int_max_str_digits(), 4300 by default), the limit a coefficient file
is read under: a longer literal is rejected, and so is a power whose exponent
times the largest bit length among its base's numerators and denominators
exceeds the bits of a number of that many digits.  The power is rejected
before it is computed.
"""

from __future__ import annotations

import math
import re as _re

from .errors import ExpressionSyntaxError, SeriesDomainError, int_digit_limit
from .series import (
    TruncatedSeries,
    exp_series,
    log1p_series,
    reciprocal,
)
from .seriesfile import read_int

_TOKEN_RE = _re.compile(
    r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])|(\S))"
)

_FUNCTIONS = ("exp", "log")

# binding strength of the binary operators; all are left-associative
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

MAX_NESTING = 100
MAX_PROFILE_DEGREE = 16


def _tokenize(text: str):
    """(kind, value, position) tokens of text, ending in an "end" token."""
    tokens = []
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        number, name, op, bad = m.groups()
        if bad is not None:
            raise ExpressionSyntaxError(f"unexpected character {bad!r}", m.start(4))
        if number is not None:
            try:
                tokens.append(("int", read_int(number), m.start(1)))
            except OverflowError as exc:
                raise ExpressionSyntaxError(str(exc), m.start(1)) from None
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            depth += (op == "(") - (op == ")")
            if depth > MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", m.start(3)
                )
            tokens.append(("op", op, m.start(3)))
    tokens.append(("end", None, len(text)))
    return tokens


def _degree(s: TruncatedSeries) -> int:
    """Highest total degree with a nonzero coefficient; -1 for zero."""
    return max((k + l for k, l in s.coeffs), default=-1)


def _bit_length(s: TruncatedSeries) -> int:
    """Largest bit length among the numerators and denominators of s."""
    return max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for c in s.coeffs.values() for q in (c.re, c.im)), default=0)


class _Parser:
    """Precedence-climbing parser that expands as it parses.

    In radial mode the variable is u and the expression must be a polynomial
    of degree at most ``order``, checked operation by operation: exp, log and
    negative exponents are rejected, a division must leave no remainder, and
    no product or power may exceed degree ``order``.  Every value is then an
    exact polynomial, so nothing is truncated."""

    def __init__(self, text: str, order: int, radial: bool = False):
        self.tokens = _tokenize(text)
        self.index = 0
        self.order = order
        self.radial = radial
        # the radial variable u takes the z slot
        self.variables = {"u": (1, 0)} if radial else {"z": (1, 0), "zb": (0, 1)}

    def _peek(self):
        return self.tokens[self.index]

    def _next(self):
        self.index += 1
        return self.tokens[self.index - 1]

    def _expect(self, op: str, message: str):
        kind, value, pos = self._next()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(message, pos)

    def _fits(self, degree: int, pos: int):
        if degree > self.order:
            raise ExpressionSyntaxError(
                f"radial profile must be a polynomial of degree at most {self.order}", pos
            )

    def parse(self) -> TruncatedSeries:
        result = self._expr()
        kind, value, pos = self._peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)
        return result

    def _expr(self, level: int = 1) -> TruncatedSeries:
        """A signed power, then every binary operation that binds at least as
        tightly as ``level``, left-associative."""
        negate = False
        while self._peek()[:2] in (("op", "+"), ("op", "-")):
            negate ^= self._next()[1] == "-"
        acc = self._power()
        if negate:
            acc = -acc
        while True:
            kind, op, pos = self._peek()
            if kind != "op" or _PRECEDENCE.get(op, 0) < level:
                return acc
            self._next()
            acc = self._binary(op, acc, self._expr(_PRECEDENCE[op] + 1), pos)

    def _binary(self, op: str, lhs, rhs, pos: int) -> TruncatedSeries:
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            if self.radial:
                self._fits(_degree(lhs) + _degree(rhs), pos)
            return lhs * rhs
        try:
            quotient = lhs * reciprocal(rhs)
        except SeriesDomainError as exc:
            raise ExpressionSyntaxError(str(exc), pos) from None
        # the quotient is a polynomial iff quotient * divisor stays within the
        # order: then it equals the dividend exactly
        if self.radial and _degree(quotient) + _degree(rhs) > self.order:
            raise ExpressionSyntaxError(
                "radial profile must be a polynomial: the division leaves a remainder", pos
            )
        return quotient

    def _power(self) -> TruncatedSeries:
        base = self._atom()
        kind, value, caret = self._peek()
        if kind == "op" and value == "^":
            self._next()
            sign = 1
            kind, value, pos = self._next()
            if kind == "op" and value == "-":
                sign = -1
                kind, value, pos = self._next()
            if kind != "int":
                raise ExpressionSyntaxError("expected integer exponent", pos)
            if self.radial:
                if sign < 0:
                    raise ExpressionSyntaxError(
                        "radial profile must be a polynomial: negative exponent", pos
                    )
                self._fits(value * max(_degree(base), 0), pos)
            limit = int_digit_limit()
            if limit and value * _bit_length(base) > limit * math.log2(10):
                raise ExpressionSyntaxError(
                    f"power too large: its numbers may exceed {limit} digits", caret
                )
            try:
                return base ** (sign * value)
            except SeriesDomainError as exc:
                raise ExpressionSyntaxError(str(exc), pos) from None
        return base

    def _atom(self) -> TruncatedSeries:
        kind, value, pos = self._next()
        if kind == "int":
            return TruncatedSeries.constant(value, self.order)
        if kind == "name":
            if value in _FUNCTIONS:
                if self.radial:
                    raise ExpressionSyntaxError(
                        f"radial profile must be a polynomial: {value} is not allowed", pos
                    )
                self._expect("(", f"expected '(' after {value!r}")
                arg = self._expr()
                self._expect(")", "expected ')'")
                try:
                    if value == "exp":
                        return exp_series(arg)
                    if arg.constant_term != 1:
                        raise SeriesDomainError("log requires argument with constant term 1")
                    return log1p_series(arg - TruncatedSeries.constant(1, arg.order))
                except SeriesDomainError as exc:
                    raise ExpressionSyntaxError(str(exc), pos) from None
            if value in self.variables:
                # degree 1: at order 0 it truncates to zero, as a product does
                pair = self.variables[value]
                return TruncatedSeries(self.order, {pair: 1} if self.order else None)
            raise ExpressionSyntaxError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self._expr()
            self._expect(")", "expected ')'")
            return inner
        raise ExpressionSyntaxError(
            "expected a number, variable, function, or '('", pos
        )


def parse_expression(text: str, order: int) -> TruncatedSeries:
    """Exact expansion of an expression in z, zb to the given order."""
    return _Parser(text, order).parse()


def parse_radial_polynomial(text: str, max_degree: int = MAX_PROFILE_DEGREE):
    """Parse a polynomial in the radial variable u of degree at most
    ``max_degree``; returns its ascending Fraction coefficients.

    Used for the compact-metric conformal profile.  Polynomiality is checked
    operation by operation (see :class:`_Parser`), so a profile such as
    exp(u) - 1, 1/(1+u^18) or u^17 is rejected instead of truncated.
    """
    s = _Parser(text, max_degree, radial=True).parse()
    # u maps onto the z slot and the grammar has no literal for i, so every
    # coefficient sits at (k, 0) and is real
    coeffs = {k: c.re for (k, _), c in s.coeffs.items()}
    degree = max(coeffs, default=0)
    return [coeffs.get(j, 0) for j in range(degree + 1)]

