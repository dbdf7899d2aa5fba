"""Pseudohermitian layer: R, Levi normalization, fiber representatives, bracket,
cross-identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanq import transverse
from cartanq.errors import InvalidFiberPointError
from cartanq.expr import parse_expression
from cartanq.gaussrat import GaussianRational
from cartanq.invariants import weight3_scaling
from cartanq.surface import (
    SurfaceChart,
    cartan_r,
    cartan_s,
    gauss_curvature,
    qisgauss_residuals,
)
from cartanq.transverse import (
    FiberPoint,
    PseudohermitianChart,
    check_qisgauss_trans,
    k_equals_2r_residual,
    q11_representative,
    q_representative,
    scalar_curvature_R,
    verify_bracket_identity,
)
from conftest import (
    f_eps_chart,
    flat_chart,
    one_plus_rho_chart,
    random_positive_metric,
    round_sphere_chart,
)


def pchart(chart):
    return PseudohermitianChart(chart)


# -- scalar curvature -----------------------------------------------------------


def test_scalar_curvature_examples():
    assert scalar_curvature_R(pchart(flat_chart())).is_zero
    R = scalar_curvature_R(pchart(round_sphere_chart()))
    assert R.constant_term == GaussianRational(2) and R.coeffs == {(0, 0): R.constant_term}
    R2 = scalar_curvature_R(pchart(one_plus_rho_chart()))
    assert R2 == parse_expression("-(1+z*zb)^-3", R2.order)


def test_k_equals_2r(corpus):
    for chart in corpus:
        assert k_equals_2r_residual(pchart(chart)).is_zero


def test_scalar_curvature_derived_once_per_chart(products):
    """A chart pipeline asks for R three times, directly, in check_qisgauss_trans
    and in k_equals_2r_residual; it is one series product."""
    chart = SurfaceChart(random_positive_metric(random.Random(11), 12))
    R = scalar_curvature_R(chart)
    check_qisgauss_trans(chart)
    k_equals_2r_residual(chart)
    b_zbar = chart.b.diff("zbar")
    assert sum(a == b_zbar and out == -R for a, _, out in products) == 1
    products.clear()
    assert scalar_curvature_R(pchart(chart)) is R and products == []


def test_chart_and_its_pseudohermitian_view_share_results():
    """Each function of the layer gives the same result on a SurfaceChart and
    on PseudohermitianChart(chart), whichever is asked first: the two share
    one cache, so a cached series is the same object."""
    lam = FiberPoint(GaussianRational(1, 1))
    for chart_first in (True, False):
        chart = SurfaceChart(random_positive_metric(random.Random(7), 10))
        pc = pchart(chart)
        assert isinstance(pc, SurfaceChart) and pc.e2phi is chart.e2phi
        first, second = (chart, pc) if chart_first else (pc, chart)
        assert scalar_curvature_R(second) is scalar_curvature_R(first)
        assert k_equals_2r_residual(second) is k_equals_2r_residual(first)
        assert check_qisgauss_trans(second) == check_qisgauss_trans(first)
        q, q11 = q_representative(first, lam), q11_representative(first, lam)
        assert q_representative(second, lam) == q and q.series is cartan_r(second)
        assert q11_representative(second, lam) == q11 and q11.series is cartan_s(second)
        assert weight3_scaling(second, [4]) == weight3_scaling(first, [4])


def levi_normalized(chart):
    """b e^{2phi} = D(e^{2phi}): the contact form has Levi form one against dz."""
    w = chart.e2phi
    return chart.b * w.truncated(chart.order - 1) == w.diff("z")


def test_levi_normalization(corpus):
    for chart in corpus:
        assert levi_normalized(chart)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
def test_levi_normalization_random_metrics(seed, n):
    chart = SurfaceChart(random_positive_metric(random.Random(seed), n))
    assert levi_normalized(chart)


# -- fiber representatives --------------------------------------------------------------


def test_fiber_point_validation():
    with pytest.raises(InvalidFiberPointError):
        FiberPoint(GaussianRational(0))
    with pytest.raises(InvalidFiberPointError):
        FiberPoint(lam=GaussianRational(0))
    with pytest.raises(InvalidFiberPointError):
        FiberPoint(GaussianRational(1))._replace(lam=GaussianRational(0))
    p = FiberPoint(GaussianRational(1, 2))  # lambda = 1 + 2i, |lambda|^6 = 125
    rep = q11_representative(pchart(flat_chart()), p)
    assert rep.scale == GaussianRational(Fraction(1, 125))


def test_q_spherical_is_zero():
    rep = q_representative(pchart(round_sphere_chart()), FiberPoint(GaussianRational(1)))
    assert rep.series.is_zero and rep.constant_value() == GaussianRational(0)


def test_q_series_one_plus_rho():
    rep = q_representative(pchart(one_plus_rho_chart()), FiberPoint(GaussianRational(1)))
    assert rep.series == parse_expression("5/2*z^2*(1+z*zb)^-4", rep.series.order)
    assert rep.scale == GaussianRational(1)


def test_q_scale_law():
    pc = pchart(one_plus_rho_chart())
    r1 = q_representative(pc, FiberPoint(GaussianRational(1)))
    r2 = q_representative(pc, FiberPoint(GaussianRational(2)))
    assert r2.scale == r1.scale / 16  # lambda*lambdabar^3 = 16 for lambda = 2
    i, mi = GaussianRational(0, 1), GaussianRational(0, -1)
    ri = q_representative(pc, FiberPoint(i))  # lambda = i
    assert ri.scale == GaussianRational(1) / (i * mi * mi * mi)


def test_q11_scale_and_mu_independence():
    # mu is not a FiberPoint coordinate, so independence of mu is structural
    eps = Fraction(1, 10)
    pc = pchart(f_eps_chart(eps))
    v1 = q11_representative(pc, FiberPoint(GaussianRational(1))).constant_value()
    assert v1 == GaussianRational(96 * eps)
    v2 = q11_representative(pc, FiberPoint(GaussianRational(2))).constant_value()
    assert v2 == v1 / 64


# -- bracket identity ----------------------------------------------------------------------


def test_bracket_identity_zero():
    assert verify_bracket_identity().is_zero


def test_bracket_negative_control():
    residual = verify_bracket_identity(perturb=True)
    assert not residual.is_zero
    assert repr(residual) == (
        "MultiPoly((2*i)*mubar*X + (-2)*mubar^2*r + (-2*i)*b*mubar*r)"
    )


def _bracket_sides(b, mubar, r, X, mu_factor=2):
    """Both sides of the bracket identity, written out as in the docstring of
    verify_bracket_identity with plain Gaussian-rational arithmetic; bbar and
    mu are the conjugates of b and mubar, so conj() is complex conjugation."""
    i = GaussianRational(0, 1)
    bbar, mu = b.conjugate(), mubar.conjugate()
    A = -(b + i * mubar * mu_factor)
    B = -(i * mu)
    E = -(mu * (bbar - i * mu))
    lhs = (X - r * b + i * r * mubar) * (A * 2 + B.conjugate() * 3) - i * r * E.conjugate()
    rhs = -(X * b * 2) + r * b * b * 2 - i * X * mubar
    return lhs, rhs


def test_bracket_identity_at_random_points():
    """An oracle that shares no code with MultiPoly: both sides agree at 20
    seeded points, and the perturbed A of the negative control does not."""
    rng = random.Random(5)
    perturbed_differs = False
    for _ in range(20):
        b, mubar, r, X = (
            GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            for _ in range(4)
        )
        lhs, rhs = _bracket_sides(b, mubar, r, X)
        assert lhs == rhs
        lhs, rhs = _bracket_sides(b, mubar, r, X, mu_factor=1)
        perturbed_differs = perturbed_differs or lhs != rhs
    assert perturbed_differs


# -- cross identities ----------------------------------------------------------------------


def test_qisgauss_trans(corpus):
    for chart in corpus:
        res1, res2 = check_qisgauss_trans(pchart(chart))
        assert res1.is_zero and res2.is_zero


def test_trans_intermediates_nontrivial():
    # the identity is exercised, not vacuous: R-derivatives are nonzero here
    chart = one_plus_rho_chart()
    assert not scalar_curvature_R(chart).is_zero
    assert not gauss_curvature(chart).is_zero
    assert not cartan_r(chart).is_zero


def test_r_residuals_detect_a_wrong_sign_of_R(monkeypatch):
    # the R residuals come from the K residuals and K - 2R by linearity; a
    # sign error in R must still show in both of them and in K - 2R
    inner = transverse.scalar_curvature_R
    monkeypatch.setattr(transverse, "scalar_curvature_R", lambda chart: -inner(chart))
    pc = pchart(SurfaceChart(random_positive_metric(random.Random(11), 12)))
    res1, res2 = check_qisgauss_trans(pc)
    assert not res1.is_zero and not res2.is_zero
    assert not k_equals_2r_residual(pc).is_zero


def test_r_residuals_reuse_the_k_residuals(products):
    # once the K residuals and R exist, the R residuals multiply only by the
    # zero series K - 2R: no product of two nonzero series is made
    chart = SurfaceChart(random_positive_metric(random.Random(11), 12))
    k1, k2 = qisgauss_residuals(chart)
    scalar_curvature_R(chart)
    products.clear()
    res1, res2 = check_qisgauss_trans(chart)
    assert res1.is_zero and res2.is_zero
    assert products and all(a.is_zero or b.is_zero for a, b, _ in products)
    assert qisgauss_residuals(chart) == (k1, k2)
