"""Surface pipeline: charts, curvature, covariant words, Cartan's r and s."""

import random
from fractions import Fraction

import pytest

from cartanq import surface
from cartanq.errors import (
    InsufficientOrderError,
    MalformedDefiningFunctionError,
    NotStrictlyPseudoconvexError,
    RepresentationError,
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
    assert chart.provenance == "from_line_bundle_metric"


def test_line_bundle_round_case():
    chart = phi_from_line_bundle_metric(expand("(1+z*zb)^-1"))
    assert chart.e2phi == expand("(1+z*zb)^-2", N - 2)


def test_line_bundle_power_scales_linearly():
    chart = phi_from_line_bundle_metric(expand("(1+z*zb)^-3"))
    assert chart.e2phi == expand("3*(1+z*zb)^-2", N - 2)


def test_line_bundle_rejects_wrong_sign():
    with pytest.raises(NotStrictlyPseudoconvexError):
        phi_from_line_bundle_metric(expand("1+z*zb"))


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


def test_covariant_odd_word_needs_rational_sqrt():
    # e^{2phi}(0) = 2 is not a rational square: odd words are unrepresentable
    chart = f_eps_chart(Fraction(1, 10))
    K = gauss_curvature(chart)
    with pytest.raises(RepresentationError) as err:
        covariant_derivative(K, ("zbar",), chart)
    assert "an even number of letters" in str(err.value)
    assert "e^{2phi}(0) is a rational square" in str(err.value)
    # but on a chart with square constant term the odd word works
    chart4 = SurfaceChart(expand("4+z*zb", 8))
    K4 = gauss_curvature(chart4)
    assert covariant_derivative(K4, ("zbar",), chart4).order == K4.order - 1


def test_covariant_odd_word_propagates_unexpected_errors(monkeypatch):
    # only an irrational e^{phi} becomes a RepresentationError; a bug inside
    # the e^{phi} computation must surface as itself
    def broken(self):
        raise TypeError("bug in ephi_inv")

    monkeypatch.setattr(SurfaceChart, "ephi_inv", broken)
    chart4 = SurfaceChart(expand("4+z*zb", 8))
    with pytest.raises(TypeError, match="bug in ephi_inv"):
        covariant_derivative(gauss_curvature(chart4), ("zbar",), chart4)


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
