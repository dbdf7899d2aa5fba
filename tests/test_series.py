"""Series ring: arithmetic, differentiation, elementary functions, conjugation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanq.errors import OrderMismatchError, SeriesDomainError
from cartanq.gaussrat import GaussianRational
from cartanq.series import (
    TruncatedSeries,
    differentiate,
    exp_series,
    log1p_series,
    reciprocal,
)
from conftest import random_real_series, random_series

Z = lambda n: TruncatedSeries(n, {(1, 0): 1})
ZB = lambda n: TruncatedSeries(n, {(0, 1): 1})
ONE = lambda n: TruncatedSeries.constant(1, n)


# -- coefficient field ---------------------------------------------------------


def test_gaussian_rational_exactness():
    a = GaussianRational(Fraction(1, 3), Fraction(-2, 7))
    b = GaussianRational(Fraction(5, 11), Fraction(4, 13))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a.conjugate().conjugate() == a


def test_gaussian_rational_reduced_form():
    q = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
    assert q.re == Fraction(1, 2) and q.im == Fraction(-2, 3)
    assert q.re.denominator > 0 and q.im.denominator > 0


# -- arithmetic examples ---------------------------------------------------------


def test_mul_difference_of_squares():
    s = (ONE(4) + Z(4)) * (ONE(4) - Z(4))
    assert s == TruncatedSeries(4, {(0, 0): 1, (2, 0): -1})


def test_mul_truncation_drops_overflow():
    zzb = TruncatedSeries(3, {(1, 1): 1})
    assert (zzb * zzb).is_zero


def test_add_example():
    a = TruncatedSeries(3, {(0, 0): 1, (1, 0): 2, (0, 1): 1})
    b = TruncatedSeries(3, {(0, 0): 3, (0, 1): -1})
    assert a + b == TruncatedSeries(3, {(0, 0): 4, (1, 0): 2})


def test_infix_aligns_to_min_order():
    assert (ONE(6) + ONE(4)).order == 4


def test_truncated_cannot_raise_order():
    with pytest.raises(OrderMismatchError):
        ONE(4).truncated(5)


def test_construction_rejects_overflow_and_negatives():
    with pytest.raises(ValueError):
        TruncatedSeries(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, {(-1, 0): 1})


# -- differentiation --------------------------------------------------------------


def test_diff_examples():
    s = TruncatedSeries(5, {(2, 1): 1})
    assert s.diff("z") == TruncatedSeries(4, {(1, 1): 2})
    assert s.diff("zbar") == TruncatedSeries(4, {(2, 0): 1})


def test_diff_log_series():
    # D log(1+z*zb) = zb - z*zb^2 + z^2*zb^3 at order 5
    rho = TruncatedSeries(6, {(1, 1): 1})
    d = log1p_series(rho).diff("z")
    assert d == TruncatedSeries(
        5, {(0, 1): 1, (1, 2): -1, (2, 3): 1}
    )


def test_diff_decrements_order():
    assert Z(7).diff("z").order == 6
    with pytest.raises(OrderMismatchError):
        differentiate(ONE(0), "z")


# -- elementary functions ------------------------------------------------------------


def test_reciprocal_geometric():
    s = reciprocal(ONE(3) - Z(3))
    assert s == TruncatedSeries(3, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})


def test_exp_log_inverse_pair():
    rho = TruncatedSeries(6, {(1, 1): 1})
    assert exp_series(log1p_series(rho)) == ONE(6) + rho


def test_log1p_high_degree_argument():
    # 16*eps*z^3*zb^3 with eps = 1/10: the square is degree 12 > 8
    s = TruncatedSeries(8, {(3, 3): Fraction(16, 10)})
    assert log1p_series(s) == s


def test_elementary_domain_errors():
    with pytest.raises(SeriesDomainError):
        exp_series(ONE(4))
    with pytest.raises(SeriesDomainError):
        log1p_series(ONE(4))
    with pytest.raises(SeriesDomainError):
        reciprocal(Z(4))


@pytest.mark.parametrize("order", [1, 2, 3, 12, 31, 32, 48])
def test_reciprocal_product_count(products, order):
    # a degree-1 term starts the iteration at order 0, the longest case
    s = ONE(order) + Z(order) + ZB(order) * 3
    products.clear()
    reciprocal(s)
    assert len(products) <= 2 * order.bit_length()  # 2 (floor(log2 N) + 1)


def test_reciprocal_starts_where_the_constant_is_exact(products):
    # 1/2 is exact to order 5 for 2 + z^3 zb^3: two steps reach 11 and 12
    s = ONE(12) * 2 + TruncatedSeries(12, {(3, 3): Fraction(16, 10)})
    products.clear()
    reciprocal(s)
    assert len(products) == 4


def test_pow_makes_no_product_by_a_constant(products):
    s = ONE(8) + Z(8) + ZB(8)
    products.clear()
    assert s ** 1 == s and not products
    for n in range(2, 9):
        s ** n
    assert not [ab for ab in products
                if any(set(x.coeffs) <= {(0, 0)} for x in ab[:2])]
    assert len(products) == sum(n.bit_length() + bin(n).count("1") - 2 for n in range(2, 9))


def test_pow_negative_exponent():
    s = ONE(5) + Z(5)
    assert s ** -2 == reciprocal(s) * reciprocal(s)
    assert s ** 0 == ONE(5)


# -- conjugation --------------------------------------------------------------------


def test_conjugate_examples():
    iz = TruncatedSeries(3, {(1, 0): GaussianRational(0, 1)})
    assert iz.conjugate() == TruncatedSeries(3, {(0, 1): GaussianRational(0, -1)})
    real = TruncatedSeries(3, {(1, 1): 1, (0, 0): 2})
    assert real.conjugate() == real
    assert real.real_flag


# -- hypothesis property suite ---------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)
orders = st.integers(min_value=1, max_value=8)


def _mk(seed, order, real=False):
    rng = random.Random(seed)
    return (random_real_series if real else random_series)(rng, order)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, seeds, orders)
def test_ring_axioms(s1, s2, s3, n):
    a, b, c = _mk(s1, n), _mk(s2, n), _mk(s3, n)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) - b == a


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, orders)
def test_leibniz_rule(s1, s2, n):
    a, b = _mk(s1, n), _mk(s2, n)
    for var in ("z", "zbar"):
        lhs = (a * b).diff(var)
        rhs = a.diff(var) * b.truncated(n - 1) + a.truncated(n - 1) * b.diff(var)
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, orders)
def test_conjugation_anti_automorphism(s1, s2, n):
    a, b = _mk(s1, n), _mk(s2, n)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a
    assert a.diff("z").conjugate() == a.conjugate().diff("zbar")


@settings(max_examples=60, deadline=None)
@given(seeds, orders)
def test_exp_log_inversion_random(seed, n):
    rng = random.Random(seed)
    s = random_series(rng, n)
    s = s - TruncatedSeries.constant(s.constant_term, n)
    assert log1p_series(exp_series(s) - TruncatedSeries.constant(1, n)) == s


@settings(max_examples=60, deadline=None)
@given(seeds, orders)
def test_real_flag_detection(seed, n):
    s = _mk(seed, n, real=True)
    assert s.real_flag
    assert (s * s).real_flag
    perturbed = s + TruncatedSeries(n, {(0, min(1, n)): GaussianRational(0, 1)})
    assert not perturbed.real_flag
