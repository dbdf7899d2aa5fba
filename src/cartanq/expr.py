"""Expression parser for exact series input.

Grammar (whitespace-insensitive):
    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | 'z' | 'zb' | 'exp' '(' expr ')' | 'log' '(' expr ')'
              | '(' expr ')'

Rational literals like 1/10 come out of the '/' operator on constants, which
is exact.  'log' requires an argument with constant term 1; '/' requires a
divisor with nonzero constant term; '^' accepts any integer exponent as long
as the reciprocal is legal when it is negative.
"""

from __future__ import annotations

import re as _re

from .errors import ExpressionSyntaxError, SeriesDomainError
from .series import (
    TruncatedSeries,
    exp_series,
    log1p_series,
    reciprocal,
)

_TOKEN_RE = _re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")

_FUNCTIONS = ("exp", "log")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        pos = 0
        n = len(self.text)
        while pos < n:
            m = _TOKEN_RE.match(self.text, pos)
            if m is None or m.end() == pos:
                # skip over whitespace-only tail
                if self.text[pos:].strip() == "":
                    break
                bad = pos + len(self.text[pos:]) - len(self.text[pos:].lstrip())
                raise ExpressionSyntaxError(
                    f"unexpected character {self.text[bad]!r}", bad
                )
            if m.group(1) is not None:
                self.tokens.append(("int", int(m.group(1)), m.start(1)))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


def _degree(s: TruncatedSeries) -> int:
    """Highest total degree with a nonzero coefficient; -1 for zero."""
    return max((k + l for k, l in s.coeffs), default=-1)


class _Parser:
    """Recursive-descent parser that expands as it parses.

    In radial mode the variable is u and the expression must be a polynomial
    of degree at most ``order``, checked operation by operation: exp, log and
    negative exponents are rejected, a division must leave no remainder, and
    no product or power may exceed degree ``order``.  Every value is then an
    exact polynomial, so nothing is truncated."""

    def __init__(self, text: str, order: int, radial: bool = False):
        self.toks = _Tokenizer(text)
        self.order = order
        self.radial = radial
        self.variables = ("u",) if radial else ("z", "zb")

    def _fits(self, degree: int, pos: int):
        if degree > self.order:
            raise ExpressionSyntaxError(
                f"radial profile must be a polynomial of degree at most {self.order}", pos
            )

    def parse(self) -> TruncatedSeries:
        result = self._expr()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)
        return result

    def _expr(self) -> TruncatedSeries:
        acc = self._term()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in ("+", "-"):
                self.toks.next()
                rhs = self._term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def _term(self) -> TruncatedSeries:
        acc = self._unary()
        while True:
            kind, value, pos = self.toks.peek()
            if kind == "op" and value in ("*", "/"):
                self.toks.next()
                rhs = self._unary()
                if value == "*":
                    if self.radial:
                        self._fits(_degree(acc) + _degree(rhs), pos)
                    acc = acc * rhs
                else:
                    try:
                        acc = acc * reciprocal(rhs)
                    except SeriesDomainError as exc:
                        raise ExpressionSyntaxError(str(exc), pos) from None
                    # the quotient is a polynomial iff quotient * divisor stays
                    # within the order: then it equals the dividend exactly
                    if self.radial and _degree(acc) + _degree(rhs) > self.order:
                        raise ExpressionSyntaxError(
                            "radial profile must be a polynomial: the division "
                            "leaves a remainder", pos
                        )
            else:
                return acc

    def _unary(self) -> TruncatedSeries:
        kind, value, _ = self.toks.peek()
        if kind == "op" and value in ("+", "-"):
            self.toks.next()
            operand = self._unary()
            return operand if value == "+" else -operand
        return self._power()

    def _power(self) -> TruncatedSeries:
        base = self._atom()
        kind, value, pos = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.next()
            sign = 1
            kind, value, pos = self.toks.next()
            if kind == "op" and value == "-":
                sign = -1
                kind, value, pos = self.toks.next()
            if kind != "int":
                raise ExpressionSyntaxError("expected integer exponent", pos)
            if self.radial:
                if sign < 0:
                    raise ExpressionSyntaxError(
                        "radial profile must be a polynomial: negative exponent", pos
                    )
                self._fits(value * max(_degree(base), 0), pos)
            try:
                return base ** (sign * value)
            except SeriesDomainError as exc:
                raise ExpressionSyntaxError(str(exc), pos) from None
        return base

    def _atom(self) -> TruncatedSeries:
        kind, value, pos = self.toks.next()
        if kind == "int":
            return TruncatedSeries.constant(value, self.order)
        if kind == "name":
            if value in _FUNCTIONS:
                if self.radial:
                    raise ExpressionSyntaxError(
                        f"radial profile must be a polynomial: {value} is not allowed", pos
                    )
                kind2, value2, pos2 = self.toks.next()
                if kind2 != "op" or value2 != "(":
                    raise ExpressionSyntaxError(
                        f"expected '(' after {value!r}", pos2
                    )
                arg = self._expr()
                kind2, value2, pos2 = self.toks.next()
                if kind2 != "op" or value2 != ")":
                    raise ExpressionSyntaxError("expected ')'", pos2)
                try:
                    if value == "exp":
                        return exp_series(arg)
                    # log requires constant term 1
                    one = TruncatedSeries.constant(1, arg.order)
                    if arg.constant_term != one.constant_term:
                        raise SeriesDomainError(
                            "log requires argument with constant term 1"
                        )
                    return log1p_series(arg - one)
                except SeriesDomainError as exc:
                    raise ExpressionSyntaxError(str(exc), pos) from None
            if value in self.variables:
                if value == "u":
                    # radial profile variable, mapped onto the z slot
                    return TruncatedSeries.variable("z", self.order)
                return TruncatedSeries.variable(value, self.order)
            raise ExpressionSyntaxError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self._expr()
            kind2, value2, pos2 = self.toks.next()
            if kind2 != "op" or value2 != ")":
                raise ExpressionSyntaxError("expected ')'", pos2)
            return inner
        raise ExpressionSyntaxError(
            "expected a number, variable, function, or '('", pos
        )


def parse_expression(text: str, order: int) -> TruncatedSeries:
    """Exact expansion of an expression in z, zb to the given order."""
    return _Parser(text, order).parse()


def parse_radial_polynomial(text: str, max_degree: int = 16):
    """Parse a polynomial in the radial variable u of degree at most
    ``max_degree``; returns its ascending Fraction coefficients.

    Used for the compact-metric conformal profile.  Polynomiality is checked
    operation by operation (see :class:`_Parser`), so a profile such as
    exp(u) - 1, 1/(1+u^18) or u^17 is rejected instead of truncated.
    """
    s = _Parser(text, max_degree, radial=True).parse()
    coeffs = {}
    for (k, l), c in s.coeffs.items():
        if l != 0:
            raise ExpressionSyntaxError("radial profile must depend on u only", 0)
        if c.im:
            raise ExpressionSyntaxError("radial profile must be real", 0)
        coeffs[k] = c.re
    degree = max(coeffs, default=0)
    return [coeffs.get(j, 0) for j in range(degree + 1)]


def print_expression(s: TruncatedSeries) -> str:
    """Canonical printer; parse(print(s), s.order) reproduces s exactly."""
    if s.is_zero:
        return "0"
    # the grammar has no literal for i
    if any(c.im for c in s.coeffs.values()):
        raise ValueError("canonical printer only supports real-coefficient series")
    parts = []
    for (k, l), c in s.coeffs.items():
        mon = []
        if k:
            mon.append(f"z^{k}")
        if l:
            mon.append(f"zb^{l}")
        q = c.re
        term = "*".join([f"{abs(q.numerator)}/{q.denominator}"] + mon)
        parts.append(("-" if q < 0 else "+") + term)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text
