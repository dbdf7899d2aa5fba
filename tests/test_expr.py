"""Expression grammar: exact expansion, error positions, printer round trip."""

import math
import random
import sys
from fractions import Fraction

import pytest

from cartanq.errors import ExpressionSyntaxError
from cartanq.expr import (
    MAX_NESTING,
    parse_expression,
    parse_radial_polynomial,
    print_expression,
)
from cartanq.gaussrat import GaussianRational
from cartanq.series import TruncatedSeries
from conftest import random_real_series


def test_binomial_series():
    s = parse_expression("(1+z*zb)^-2", 6)
    assert s == TruncatedSeries(
        6, {(0, 0): 1, (1, 1): -2, (2, 2): 3, (3, 3): -4}
    )


def test_exp_expansion():
    s = parse_expression("exp(-z*zb)", 4)
    assert s == TruncatedSeries(4, {(0, 0): 1, (1, 1): -1, (2, 2): Fraction(1, 2)})


def test_rational_literal_via_division():
    s = parse_expression("z*zb + 1/10*z^4*zb^4", 10)
    assert s.coeff(1, 1).re == 1
    assert s.coeff(4, 4).re == Fraction(1, 10)


def test_log_requires_unit_constant():
    assert parse_expression("log(1+z*zb)", 4) == TruncatedSeries(
        4, {(1, 1): 1, (2, 2): Fraction(-1, 2)}
    )
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("log(2+z)", 4)


def test_syntax_error_positions():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 + @", 4)
    assert err.value.position == 4
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("z^zb", 4)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(1+z", 4)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1/(z)", 4)  # zero constant divisor
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("w + 1", 4)


def test_whitespace_insensitive():
    assert parse_expression(" ( 1 + z * zb ) ^ 2 ", 5) == parse_expression(
        "(1+z*zb)^2", 5
    )


def test_printer_round_trip_random():
    # the grammar has no imaginary literal, so the printer covers exactly the
    # real-coefficient series
    rng = random.Random(3)
    for _ in range(25):
        raw = random_real_series(rng, 6)
        s = TruncatedSeries(
            raw.order, {kl: c.re for kl, c in raw.coeffs.items()}
        )
        assert parse_expression(print_expression(s), s.order) == s
    assert parse_expression(print_expression(TruncatedSeries(4)), 4).is_zero
    for imaginary in (GaussianRational(0, 1), GaussianRational(2, 1)):
        with pytest.raises(ValueError):
            print_expression(TruncatedSeries(4, {(0, 0): 1, (1, 1): imaginary}))


def test_radial_polynomial():
    assert parse_radial_polynomial("u*(1-u)/10") == [
        0, Fraction(1, 10), Fraction(-1, 10)
    ]
    assert parse_radial_polynomial("0") == [0]
    with pytest.raises(ExpressionSyntaxError):
        parse_radial_polynomial("z + u")


@pytest.mark.parametrize("text", [
    "exp(u)-1", "1/(1+u)", "log(1+u)", "u^17",
    # non-polynomial or too high terms two or more degrees past the cap
    "1/(1+u^18)", "u^18", "u^9*u^9", "(1+u^2)/(1+u)", "exp(u-u)", "(1+u)^-1*(1+u)",
])
def test_radial_polynomial_rejects_what_it_would_truncate(text):
    with pytest.raises(ExpressionSyntaxError):
        parse_radial_polynomial(text)


def test_radial_polynomial_keeps_top_degree():
    assert parse_radial_polynomial("u^16 + (1+u)^2/(1+u)") == (
        [1, 1] + [0] * 14 + [Fraction(1)]
    )


@pytest.mark.parametrize("text", ["z", "zb", "z*zb", "3*z/2", "zb^2"])
def test_variables_truncate_at_order_zero(text):
    # a variable has degree 1, so at order 0 it truncates as a product does
    assert parse_expression(text, 0) == TruncatedSeries(0)
    assert parse_expression(f"2 + {text}", 0) == TruncatedSeries.constant(2, 0)


# -- nesting and sign runs: bounded stack ------------------------------------------


@pytest.mark.parametrize("parse", [parse_expression, parse_radial_polynomial])
def test_nesting_up_to_the_bound_parses(parse):
    var = "u" if parse is parse_radial_polynomial else "z"
    text = "(" * MAX_NESTING + f"1+{var}" + ")" * MAX_NESTING
    assert parse(text, 4) == parse(f"1+{var}", 4)
    # a binary right operand at every level, the deepest stack per parenthesis
    n = MAX_NESTING
    text = "1+2*(" * n + var + ")" * n
    assert parse(text, 4) == parse(f"{2**n - 1}+{2**n}*{var}", 4)


@pytest.mark.parametrize("parse", [parse_expression, parse_radial_polynomial])
@pytest.mark.parametrize("prefix", ["", "1+", "exp("])
def test_nesting_past_the_bound_is_a_syntax_error(parse, prefix):
    text = prefix + "(" * (MAX_NESTING + 100) + "1" + ")" * (MAX_NESTING + 100)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text, 4)
    # the first '(' past the bound; a function's own '(' counts
    pos = len(prefix) - prefix.count("(") + MAX_NESTING
    assert err.value.position == pos
    assert str(err.value) == f"parentheses nested deeper than {MAX_NESTING} (at position {pos})"


def test_closed_parentheses_do_not_count_toward_the_bound():
    text = "+".join(["(" * MAX_NESTING + "z" + ")" * MAX_NESTING] * 3)
    assert parse_expression(text, 4) == parse_expression("3*z", 4)


@pytest.mark.parametrize("signs, expected", [
    ("-" * 1501, "-z*zb"), ("-" * 1500, "z*zb"), ("+-" * 750 + "+", "z*zb"),
], ids=["odd", "even", "mixed"])
def test_sign_runs_fold_without_recursion(signs, expected):
    assert parse_expression(signs + "z*zb", 4) == parse_expression(expected, 4)
    assert parse_expression("1+" + signs + "z*zb", 4) == parse_expression(
        "1+" + expected, 4)


def test_dangling_sign_run_is_a_syntax_error():
    text = "1+" + "-" * 1500
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text, 4)
    assert err.value.position == len(text)


@pytest.mark.parametrize("text, position", [("\u0661+z*zb", 0), ("1+z*\uff12", 4)])
def test_non_ascii_digits_are_unexpected_characters(text, position):
    with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
        parse_expression(text, 4)
    assert err.value.position == position


# -- numbers beyond the digit limit ------------------------------------------------


def _refuse_power(self, n):
    raise AssertionError(f"power {n} computed")


def test_literal_beyond_the_digit_limit_is_a_syntax_error():
    big = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 + " + big, 4)
    assert err.value.position == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_radial_polynomial("u*" + big)
    assert err.value.position == 2


@pytest.mark.parametrize("parse, text, caret", [
    (parse_expression, "1+z*zb*2^100000000/2^100000000", 8),
    (parse_expression, "1+z*zb*10^5000", 9),
    (parse_expression, "(3+z)^-100000", 5),
    (parse_expression, "(1/3+z*zb)^100000", 10),
    (parse_radial_polynomial, "u*2^10000000", 3),
])
def test_power_beyond_the_digit_limit_is_rejected_before_it_is_computed(
    monkeypatch, parse, text, caret
):
    monkeypatch.setattr(TruncatedSeries, "__pow__", _refuse_power)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text, 14)
    assert err.value.position == caret


def test_power_cap_is_derived_from_the_digit_limit():
    # 2 has bit length 2; 2^n is capped once 2 n exceeds the bits of a number
    # with as many digits as the limit
    n = math.floor(sys.get_int_max_str_digits() * math.log2(10) / 2)
    assert parse_expression(f"2^{n}", 2).constant_term.re == 2**n
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(f"2^{n + 1}", 2)
