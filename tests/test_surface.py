"""Surface pipeline: charts, curvature, covariant words, Cartan's r and s."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cartanq import surface
from cartanq.errors import (
    InsufficientOrderError,
    MalformedDefiningFunctionError,
    NotStrictlyPseudoconvexError,
)
from cartanq.expr import parse_expression
from cartanq.gaussrat import GaussianRational
from cartanq.series import TruncatedSeries, reciprocal
from cartanq.surface import (
    SurfaceChart,
    cartan_r,
    cartan_s,
    covariant_derivative,
    divergence_form_residual,
    gauss_curvature,
    phi_from_line_bundle_metric,
    phi_from_rigid_defining,
    qisgauss_residuals,
)
from cartanq.transverse import PseudohermitianChart, check_qisgauss_trans, k_equals_2r_residual
from conftest import (
    f_eps_chart,
    flat_chart,
    one_plus_rho_chart,
    random_positive_metric,
    round_sphere_chart,
)

N = 14


def expand(text, order=N):
    return parse_expression(text, order)


# -- chart constructors ---------------------------------------------------------


def test_chart_rejects_bad_metrics():
    with pytest.raises(NotStrictlyPseudoconvexError):
        SurfaceChart(TruncatedSeries.constant(-1, 6))
    with pytest.raises(NotStrictlyPseudoconvexError):
        SurfaceChart(expand("z + 1", 6))  # not real


def test_line_bundle_flat_case():
    chart = phi_from_line_bundle_metric(expand("exp(-z*zb)"))
    assert chart.e2phi == TruncatedSeries.constant(1, N - 2)


def test_line_bundle_round_case():
    chart = phi_from_line_bundle_metric(expand("(1+z*zb)^-1"))
    assert chart.e2phi == expand("(1+z*zb)^-2", N - 2)


def test_line_bundle_power_scales_linearly():
    chart = phi_from_line_bundle_metric(expand("(1+z*zb)^-3"))
    assert chart.e2phi == expand("3*(1+z*zb)^-2", N - 2)


def test_line_bundle_rejects_wrong_sign():
    with pytest.raises(NotStrictlyPseudoconvexError):
        phi_from_line_bundle_metric(expand("1+z*zb"))


def test_line_bundle_order_floor():
    with pytest.raises(InsufficientOrderError, match=r"^line-bundle metric needs order >= 4$"):
        phi_from_line_bundle_metric(expand("(1+z*zb)^-1", 3))
    chart = phi_from_line_bundle_metric(expand("(1+z*zb)^-1", 4))
    assert chart.e2phi == expand("(1+z*zb)^-2", 2)


def test_connection_coefficient_one_plus_rho():
    b = one_plus_rho_chart().b  # b = D(w)/w for w = 1 + z zb
    assert b == expand("zb*(1+z*zb)^-1", b.order)


def test_rigid_defining_basic():
    chart = phi_from_rigid_defining(expand("z*zb", 10))
    assert chart.e2phi == TruncatedSeries.constant(2, 8)
    assert chart.b.is_zero


def test_rigid_defining_f_eps():
    eps = Fraction(1, 10)
    chart = f_eps_chart(eps, order=12)
    assert chart.e2phi == expand("2*(1 + 16/10*z^3*zb^3)", 10)
    # bbar = F_zzbzb / F_zzb = 48 eps z^3 zb^2 (1 + 16 eps z^3 zb^3)^-1
    expected = expand("48/10*z^3*zb^2 * (1+16/10*z^3*zb^3)^-1", chart.bbar.order)
    assert chart.bbar == expected


def test_rigid_defining_rejections():
    with pytest.raises(MalformedDefiningFunctionError):
        phi_from_rigid_defining(expand("2*z*zb", 10))  # wrong z*zb coefficient
    low_degree = TruncatedSeries(10, {(1, 1): 1, (2, 1): 1, (1, 2): 1})
    with pytest.raises(MalformedDefiningFunctionError):
        phi_from_rigid_defining(low_degree)
    linear = TruncatedSeries(10, {(1, 1): 1, (1, 0): 1, (0, 1): 1})
    with pytest.raises(MalformedDefiningFunctionError):
        phi_from_rigid_defining(linear)


# -- Gauss curvature ----------------------------------------------------------------


def test_gauss_curvature_examples():
    assert gauss_curvature(flat_chart()).is_zero
    assert gauss_curvature(round_sphere_chart()) == TruncatedSeries.constant(4, N - 2)
    assert gauss_curvature(one_plus_rho_chart()) == expand("-2*(1+z*zb)^-3", N - 2)


# -- covariant derivative engine ----------------------------------------------------


def test_covariant_of_constant_curvature():
    chart = round_sphere_chart()
    K = gauss_curvature(chart)
    assert covariant_derivative(K, ("zbar", "zbar"), chart).is_zero


def test_covariant_kzbzb_closed_form():
    chart = one_plus_rho_chart()
    K = gauss_curvature(chart)
    K2 = covariant_derivative(K, ("zbar", "zbar"), chart)
    assert K2 == expand("-30*z^2*(1+z*zb)^-6", K2.order)


@pytest.mark.parametrize("word", [("zbar",), ("z", "zbar", "z")])
def test_covariant_odd_word_is_rejected(corpus, word):
    # e^{-L phi} is a power of w only for even L, whatever w(0) is
    for chart in corpus + [SurfaceChart(expand("4+z*zb", 8))]:
        with pytest.raises(ValueError, match="odd number of letters"):
            covariant_derivative(gauss_curvature(chart), word, chart)


@pytest.mark.parametrize(
    "word, count",
    [
        (("zbar", "zbar"), 2),
        (("zbar", "zbar", "z", "z"), 3),
        (("z", "zbar", "z", "zbar"), 3),
    ],
)
def test_covariant_word_product_count(products, word, count):
    # the first z and the first zbar need no b product; one more makes w^{-L/2}
    chart = SurfaceChart(random_positive_metric(random.Random(5), N))
    K = gauss_curvature(chart)
    chart.w_power(-2), chart.b, chart.bbar  # derived first: only the word is counted
    products.clear()
    covariant_derivative(K, word, chart)
    assert len(products) == count


@pytest.mark.parametrize(
    "metric, commute",
    [
        ("(2+z+z^2/3)*(2+zb+zb^2/3)", True),  # |g'|^2: K = 0
        ("1+z*zb+z^2*zb/3+z*zb^2/3", False),
    ],
)
def test_covariant_words_commute_on_flat_charts(metric, commute):
    chart = SurfaceChart(expand(metric))
    assert gauss_curvature(chart).is_zero == commute
    f = expand("3*z - zb^2/2 + z^2*zb + 5*z^3*zb^2/7 - z*zb^4 + z^6*zb")
    for letters in (("z", "z", "zbar", "zbar"), ("z",) * 3 + ("zbar",) * 3):
        values = {covariant_derivative(f, w, chart) for w in itertools.permutations(letters)}
        assert (len(values) == 1) == commute


def test_covariant_word_length_guard():
    chart = flat_chart(order=4)
    K = gauss_curvature(chart)
    with pytest.raises(InsufficientOrderError):
        covariant_derivative(K, ("z",) * 3, chart)


# -- Cartan r and s -------------------------------------------------------------------


def test_r_vanishes_on_spherical_charts():
    assert cartan_r(flat_chart()).is_zero
    assert cartan_r(round_sphere_chart()).is_zero


def test_r_closed_form_one_plus_rho():
    r = cartan_r(one_plus_rho_chart())
    assert r == expand("5/2*z^2*(1+z*zb)^-4", r.order)


def test_r_leading_term_f_eps():
    eps = Fraction(1, 10)
    r = cartan_r(f_eps_chart(eps))
    assert r.coeff(2, 0) == GaussianRational(48 * eps)


def test_s_examples():
    assert cartan_s(flat_chart()).is_zero
    s = cartan_s(one_plus_rho_chart())
    assert s.constant_term == GaussianRational(5)
    for eps in (Fraction(1, 10), Fraction(1, 16)):
        assert cartan_s(f_eps_chart(eps)).constant_term == GaussianRational(96 * eps)


def test_s_is_real(corpus):
    """s is real, as Q;11 is; r is not, the control that real_flag can fail."""
    for chart in corpus:
        assert cartan_s(chart).real_flag
    for seed in (11, 23, 47):
        chart = SurfaceChart(random_positive_metric(random.Random(seed), N))
        assert not cartan_r(chart).real_flag


# Hypothesis's explain phase traces every line of a failing example, which
# makes exact series arithmetic far too slow to be worth it.
NO_EXPLAIN = tuple(p for p in Phase if p is not Phase.explain)


@settings(max_examples=20, deadline=None, derandomize=True, phases=NO_EXPLAIN)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(6, 16))
def test_s_is_real_on_random_metrics(seed, order):
    chart = SurfaceChart(random_positive_metric(random.Random(seed), order))
    assert cartan_s(chart).real_flag


def test_sphericity_closure():
    # r = 0 through order forces s = 0 through its order
    for chart in (flat_chart(), round_sphere_chart()):
        assert cartan_r(chart).is_zero and cartan_s(chart).is_zero


# -- exact identities -----------------------------------------------------------------


def test_qisgauss_identities_on_sample(corpus):
    for chart in corpus:
        res1, res2 = qisgauss_residuals(chart)
        assert res1.is_zero and res2.is_zero


def test_divergence_form_identity(corpus):
    for chart in corpus:
        assert divergence_form_residual(chart).is_zero


# -- chart change ----------------------------------------------------------------------


def holomorphic(coeffs, order):
    """The polynomial sum_k coeffs[k] z^k as a series of the given order."""
    return TruncatedSeries(order, {(k, 0): c for k, c in enumerate(coeffs) if c})


def compose(f, g, order):
    """f(g(z), conj(g)(zbar)) to the given order, for a holomorphic g = z + O(z^2),
    summed from the powers of g and of its conjugate (products keep the lower
    order of their factors)."""
    gbar = g.conjugate()
    g_pow, gbar_pow = [TruncatedSeries.constant(1, order)], [TruncatedSeries.constant(1, order)]
    for _ in range(order):
        g_pow.append(g_pow[-1] * g)
        gbar_pow.append(gbar_pow[-1] * gbar)
    out = TruncatedSeries(order)
    for (k, l), c in f.truncated(order).coeffs.items():
        out = out + g_pow[k] * gbar_pow[l] * c
    return out


small = st.fractions(min_value=-2, max_value=2, max_denominator=4)
gauss = st.builds(GaussianRational, small, small)


@settings(max_examples=10, deadline=None, derandomize=True, phases=NO_EXPLAIN)
@given(seed=st.integers(0, 2**32 - 1), a=gauss, b=gauss)
def test_chart_change_covariance(seed, a, b):
    """Under z -> g(z) = z + a z^2 + b z^3 the metric becomes
    w' = (w o g) g' conj(g'); K is a scalar, K_{;zbar zbar} has weight
    conj(g')/g', r weight g' conj(g')^3 and s weight |g'|^6, and every chart
    identity still holds exactly."""
    n = 12
    w = random_positive_metric(random.Random(seed), n)
    g = holomorphic([0, 1, a, b], n)
    dg = holomorphic([1, a * 2, b * 3], n)
    chart = SurfaceChart(w)
    moved = SurfaceChart(compose(w, g, n) * dg * dg.conjugate())

    K = gauss_curvature(moved)
    assert K == compose(gauss_curvature(chart), g, K.order)
    k2 = covariant_derivative(K, ("zbar", "zbar"), moved)
    k2_base = covariant_derivative(gauss_curvature(chart), ("zbar", "zbar"), chart)
    assert k2 == compose(k2_base, g, k2.order) * dg.conjugate() * reciprocal(dg)
    r = cartan_r(moved)
    assert r == compose(cartan_r(chart), g, r.order) * dg * dg.conjugate() ** 3
    s = cartan_s(moved)
    assert s == compose(cartan_s(chart), g, s.order) * (dg * dg.conjugate()) ** 3

    pchart = PseudohermitianChart(moved)
    residuals = [*qisgauss_residuals(moved), *check_qisgauss_trans(pchart),
                 divergence_form_residual(moved), k_equals_2r_residual(pchart)]
    assert all(res.is_zero for res in residuals)


# -- order accounting -------------------------------------------------------------------


def test_order_accounting():
    chart = one_plus_rho_chart(order=14)
    assert gauss_curvature(chart).order == 12
    assert cartan_r(chart).order == 10
    assert cartan_s(chart).order == 8


def test_low_order_coefficients_stable_under_refinement():
    lo, hi = one_plus_rho_chart(order=10), one_plus_rho_chart(order=14)
    r_lo, r_hi = cartan_r(lo), cartan_r(hi)
    assert r_hi.truncated(r_lo.order) == r_lo
    s_lo, s_hi = cartan_s(lo), cartan_s(hi)
    assert s_hi.truncated(s_lo.order) == s_lo


def test_residual_suite_derives_each_power_of_w_once(products, monkeypatch):
    chart = SurfaceChart(random_positive_metric(random.Random(11), 12))
    w = chart.e2phi
    inv = reciprocal(w)
    powers = {2: w * w, 3: w * w * w, -2: inv * inv, -3: inv * inv * inv}
    inverted = []
    monkeypatch.setattr(surface, "reciprocal", lambda s: inverted.append(s) or reciprocal(s))
    products.clear()
    # the six chart residuals of the CLI report
    pchart = PseudohermitianChart(chart)
    qisgauss_residuals(chart)
    check_qisgauss_trans(pchart)
    divergence_form_residual(chart)
    k_equals_2r_residual(pchart)
    assert inverted == [w]
    for k, power in powers.items():
        assert sum(out == power for _, _, out in products) == 1, k
