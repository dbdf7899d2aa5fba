"""Independent oracle for the series core.

The reference arithmetic below is schoolbook work on plain dicts
``{(k, l): (re, im)}`` of ``Fraction`` pairs, written without any code from
``cartanq.series``.  Hypothesis draws the inputs, seeded (``derandomize``) and
bounded (``max_examples``, ``deadline``).  The draws include numerators and
denominators far above 2**64, mixed signs, purely real, purely imaginary and
zero series, dense series at the bound that sizes a packed product slot,
order 0, and operands of unequal order.
"""

import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanq.errors import OrderMismatchError, SeriesDomainError
from cartanq.gaussrat import GaussianRational
from cartanq.series import (
    TruncatedSeries,
    exp_series,
    log1p_series,
    reciprocal,
)

ORACLE = settings(
    max_examples=150, deadline=timedelta(seconds=5), derandomize=True, database=None
)

# -- reference arithmetic on {(k, l): (re, im)} ---------------------------------


def _clean(d):
    return {kl: v for kl, v in d.items() if v[0] or v[1]}


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_truncate(a, n):
    return {kl: v for kl, v in a.items() if kl[0] + kl[1] <= n}


def ref_add(a, b, n, sign=1):
    out = dict(ref_truncate(a, n))
    for kl, (x, y) in ref_truncate(b, n).items():
        x0, y0 = out.get(kl, (0, 0))
        out[kl] = (x0 + sign * x, y0 + sign * y)
    return _clean(out)


def ref_mul(a, b, n):
    out = {}
    for (k1, l1), c1 in a.items():
        for (k2, l2), c2 in b.items():
            if k1 + l1 + k2 + l2 > n:
                continue
            kl = (k1 + k2, l1 + l2)
            x, y = _cmul(c1, c2)
            x0, y0 = out.get(kl, (0, 0))
            out[kl] = (x0 + x, y0 + y)
    return _clean(out)


def ref_diff(a, var, n):
    out = {}
    for (k, l), (x, y) in a.items():
        p = k if var == "z" else l
        if p:
            kl = (k - 1, l) if var == "z" else (k, l - 1)
            out[kl] = (x * p, y * p)
    return ref_truncate(_clean(out), n - 1)


def ref_reciprocal(a, n):
    x, y = a[(0, 0)]
    norm = x * x + y * y
    inv = (x / norm, -y / norm)
    out = {}
    for d in range(n + 1):
        for k in range(d + 1):
            l = d - k
            if d == 0:
                out[(0, 0)] = inv
                continue
            acc = (Fraction(0), Fraction(0))
            for (i, j), c in a.items():
                if (i, j) != (0, 0) and i <= k and j <= l:
                    t = _cmul(c, out[(k - i, l - j)])
                    acc = (acc[0] + t[0], acc[1] + t[1])
            t = _cmul(inv, acc)
            out[(k, l)] = (-t[0], -t[1])
    return _clean(out)


def ref_maclaurin(v, n, taylor):
    """sum taylor[j] * v^j for j <= n, v without constant term."""
    out, power = {}, {(0, 0): (Fraction(1), Fraction(0))}
    for a in taylor[:n + 1]:
        out = ref_add(out, {kl: (x * a, y * a) for kl, (x, y) in power.items()}, n)
        power = ref_mul(power, v, n)
    return out


def ref_exp(v, n):
    taylor = [Fraction(1)]
    for j in range(1, n + 1):
        taylor.append(taylor[-1] / j)
    return ref_maclaurin(v, n, taylor)


def ref_log1p(v, n):
    return ref_maclaurin(v, n, [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, n + 1)])


# -- conversion ------------------------------------------------------------------


def to_series(order, a):
    return TruncatedSeries(order, {kl: GaussianRational(x, y) for kl, (x, y) in a.items()})


def from_series(s):
    return {kl: (c.re, c.im) for kl, c in s.coeffs.items()}


# -- strategies ------------------------------------------------------------------

_numerators = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**90), 2**90),
    st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**63) - 1, 2**127 - 1]),
)
_denominators = st.one_of(st.integers(1, 9), st.integers(1, 2**70))
_rationals = st.builds(Fraction, _numerators, _denominators)
_orders = st.integers(0, 5)


# every coefficient equal and just below a power of two: the product sums then
# reach the bound that sizes a packed slot, which random data rarely does
_extremes = st.sampled_from([2**63 - 1, -(2**63 - 1), 2**64 - 1, 2**127 - 1])


@st.composite
def ref_series(draw, order):
    kind = draw(st.sampled_from(["complex", "real", "imaginary", "zero", "extreme"]))
    if kind == "zero":
        return {}
    pairs = [(k, d - k) for d in range(order + 1) for k in range(d + 1)]
    if kind == "extreme":
        c = Fraction(draw(_extremes))
        im = draw(st.sampled_from([0, c, -c]))
        return {kl: (c, im) for kl in pairs}
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    out = {}
    for kl in chosen:
        x = Fraction(0) if kind == "imaginary" else draw(_rationals)
        y = draw(_rationals) if kind in ("complex", "imaginary") else Fraction(0)
        out[kl] = (x, y)
    return _clean(out)


@st.composite
def operands(draw):
    n, m = draw(_orders), draw(_orders)
    return n, draw(ref_series(n)), m, draw(ref_series(m))


# -- properties --------------------------------------------------------------------


@ORACLE
@given(operands())
def test_construction_round_trip(ops):
    n, a, _, _ = ops
    s = to_series(n, a)
    assert from_series(s) == a
    assert s.order == n
    for (k, l), (x, y) in a.items():
        assert s.coeff(k, l) == GaussianRational(x, y)
    rebuilt = to_series(n, dict(reversed(list(a.items()))))
    assert rebuilt == s and hash(rebuilt) == hash(s)


@ORACLE
@given(operands())
def test_product_matches_schoolbook(ops):
    n, a, m, b = ops
    order = min(n, m)
    prod = to_series(n, a) * to_series(m, b)
    assert prod.order == order
    assert from_series(prod) == ref_mul(a, b, order)


@ORACLE
@given(operands())
def test_square_matches_schoolbook(ops):
    n, a, _, _ = ops
    s = to_series(n, a)
    assert from_series(s * s) == ref_mul(a, a, n)


@ORACLE
@given(operands())
def test_sum_and_difference_match_schoolbook(ops):
    n, a, m, b = ops
    order = min(n, m)
    x, y = to_series(n, a), to_series(m, b)
    assert from_series(x + y) == ref_add(a, b, order)
    assert from_series(x - y) == ref_add(a, b, order, sign=-1)
    assert (x - x).is_zero


@ORACLE
@given(operands(), _rationals, _rationals)
def test_scalar_product_matches_schoolbook(ops, p, q):
    n, a, _, _ = ops
    s = to_series(n, a)
    scalar = _clean({(0, 0): (p, q)})
    assert from_series(s * GaussianRational(p, q)) == ref_mul(a, scalar, n)
    assert from_series(s * p) == _clean({kl: (x * p, y * p) for kl, (x, y) in a.items()})


@ORACLE
@given(operands())
def test_diff_matches_schoolbook(ops):
    n, a, _, _ = ops
    s = to_series(n, a)
    for var in ("z", "zbar"):
        if n == 0:
            with pytest.raises(OrderMismatchError):
                s.diff(var)
            continue
        d = s.diff(var)
        assert d.order == n - 1
        assert from_series(d) == ref_diff(a, var, n)


@ORACLE
@given(operands())
def test_conjugate_and_truncation_match_schoolbook(ops):
    n, a, m, _ = ops
    s = to_series(n, a)
    assert from_series(s.conjugate()) == {(l, k): (x, -y) for (k, l), (x, y) in a.items()}
    low = min(n, m)
    assert from_series(s.truncated(low)) == ref_truncate(a, low)


def test_product_at_the_slot_bound():
    # Dense order-4 factors with every coefficient c (1 + i t): slot (2, 2) of
    # the product sums 9 pairs, within one bit of the bound that sizes a slot,
    # and the bit lengths 59..64 put that bound on every byte alignment.
    for bits_a in range(59, 65):
        for bits_b in range(59, 65):
            for ta, tb in ((0, 0), (1, 0), (1, 1), (1, -1)):
                ca, cb = Fraction(2**bits_a - 1), Fraction(-(2**bits_b - 1))
                pairs = [(k, d - k) for d in range(5) for k in range(d + 1)]
                a = {kl: (ca, ta * ca) for kl in pairs}
                b = {kl: (cb, tb * cb) for kl in pairs}
                prod = to_series(4, a) * to_series(4, b)
                assert from_series(prod) == ref_mul(a, b, 4)


# -- the row layout of a product ----------------------------------------------------
#
# A product packs each degree row of a factor into one integer and forms the
# output rows d <= order only, as sums of row i times row d - i.

_KINDS = ("complex", "real", "imaginary")


def _kind(a, kind):
    """The complex, real or imaginary part of a reference series."""
    if kind == "real":
        return _clean({kl: (x, Fraction(0)) for kl, (x, _) in a.items()})
    if kind == "imaginary":
        return _clean({kl: (Fraction(0), y) for kl, (_, y) in a.items()})
    return a


def _dense(rng, rows, kind):
    """Coefficients on every degree below ``rows``, none of them zero."""
    def value():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**70), rng.randint(1, 2**40))
    pairs = [(k, d - k) for d in range(rows) for k in range(d + 1)]
    return _kind({kl: (value(), value()) for kl in pairs}, kind)


def test_product_with_all_zero_rows():
    # z^k |z|^{2j} at (k + j, j) leaves every second degree row empty, and a
    # single-row factor has only one nonzero row
    def radial(order, k, c):
        return {(k + j, j): (Fraction(c * (j + 1), 3), Fraction(c - j, 7))
                for j in range((order - k) // 2 + 1)}

    def single(d, c):
        return {(d - l, l): (Fraction(c + l), Fraction(l - c, 5)) for l in range(d + 1)}

    for order in (7, 12):
        factors = [{}]
        for kind in _KINDS:
            factors += [_kind(radial(order, k, c), kind) for k, c in ((0, 3), (1, -2**70), (2, 5))]
            factors += [_kind(single(d, c), kind) for d, c in ((0, 9), (3, 2**65), (order, -4))]
        for a in factors:
            for b in factors:
                prod = to_series(order, a) * to_series(order, b)
                assert from_series(prod) == ref_mul(a, b, order)


def test_product_of_factors_with_unequal_row_counts():
    # a has ra rows at order 6, b has rb rows at order 8: ra + rb - 1, the
    # rows of the full product, falls below, at and above order + 1 = 7
    rng = random.Random(19)
    sides = set()
    for ra in range(1, 8):
        for rb in range(1, 10):
            ka, kb = _KINDS[(ra + rb) % 3], _KINDS[(ra + 2 * rb) % 3]
            a, b = _dense(rng, ra, ka), _dense(rng, rb, kb)
            prod = to_series(6, a) * to_series(8, b)
            assert from_series(prod) == ref_mul(a, b, 6)
            assert from_series(to_series(8, b) * to_series(6, a)) == ref_mul(b, a, 6)
            sides.add((ra + rb - 1 > 7) - (ra + rb - 1 < 7))
    assert sides == {-1, 0, 1}


@pytest.mark.parametrize("order", [12, 24])
def test_dense_product_at_the_slot_bound(order):
    # As test_product_at_the_slot_bound, at the orders of the pipeline.  A
    # factor of 5 dense rows has 15 coefficients, and every slot (k, l) with
    # k, l >= 4 sums all 15 pairs with a dense factor: within 0.1 bit of the
    # bound that sizes a slot.  Eight bit lengths of one factor put the bound
    # on every byte alignment.  ref_mul is bilinear, so the reference is
    # c_a c_b (1 + i t_a)(1 + i t_b) times ref_mul of the all-ones factors.
    dense = [(k, d - k) for d in range(order + 1) for k in range(d + 1)]
    for rows in (5, order + 1):
        pairs = dense[:rows * (rows + 1) // 2]
        ones = ({kl: (Fraction(1), Fraction(0)) for kl in kls} for kls in (pairs, dense))
        base = ref_mul(*ones, order)
        for bits_a in range(57, 65):
            for bits_b in (59, 64):
                for ta, tb in ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1)):
                    ca, cb = Fraction(2**bits_a - 1), Fraction(-(2**bits_b - 1))
                    a = {kl: (ca, ta * ca) for kl in pairs}
                    b = {kl: (cb, tb * cb) for kl in dense}
                    scale = _cmul((ca, ta * ca), (cb, tb * cb))
                    expected = {kl: _cmul(scale, v) for kl, v in base.items()}
                    assert from_series(to_series(order, a) * to_series(order, b)) == expected


def test_imaginary_by_real_product():
    rng = random.Random(23)
    for order in (0, 3, 12):
        for rows in (1, order + 1):
            a = _dense(rng, rows, "imaginary")
            b = _dense(rng, order + 1, "real")
            for x, y in ((a, b), (b, a), (a, a)):
                prod = to_series(order, x) * to_series(order, y)
                assert from_series(prod) == ref_mul(x, y, order)


@settings(ORACLE, max_examples=80)
@given(operands())
def test_reciprocal_matches_schoolbook(ops):
    n, a, _, _ = ops
    s = to_series(n, a)
    if (0, 0) not in a:
        with pytest.raises(SeriesDomainError):
            reciprocal(s)
        return
    inv = reciprocal(s)
    assert inv.order == n
    assert from_series(inv) == ref_reciprocal(a, n)


@settings(ORACLE, max_examples=80)
@given(operands())
def test_exp_and_log1p_match_schoolbook(ops):
    n, a, _, _ = ops
    v = {kl: c for kl, c in a.items() if kl != (0, 0)}
    s = to_series(n, v)
    assert from_series(exp_series(s)) == ref_exp(v, n)
    assert from_series(log1p_series(s)) == ref_log1p(v, n)
    with pytest.raises(SeriesDomainError):
        exp_series(to_series(n, {(0, 0): (Fraction(1), Fraction(0)), **v}))
