"""Quadrature layer: areas, integration-by-parts identity, rigidity demo."""

import math
import random

import numpy as np
import pytest
import sympy as sp

from cartanq.errors import QuadratureEvaluationError
from cartanq.quadrature import (
    CompactMetric,
    QuadratureScheme,
    RadialFunction,
    calabi_identity_check,
    integrate_surface,
    rigidity_demo,
)
from cartanq.surface import cartan_r, cartan_s
from fractions import Fraction

FS = CompactMetric()  # psi = 0: Fubini-Study, curvature 4
BUMP = CompactMetric([0, Fraction(1, 10), Fraction(-1, 10)])  # psi = u(1-u)/10
QUAD = CompactMetric([0, 0, Fraction(1, 100)])  # psi = u^2/100
SCHEME = QuadratureScheme()


def ones(z):
    return np.ones(z.shape)


# -- surface integrals ---------------------------------------------------------


def test_fubini_study_area():
    area, err = integrate_surface(ones, FS, SCHEME)
    assert abs(area - math.pi) < 1e-10
    assert abs(area - math.pi) <= max(err, 1e-12)


def test_area_with_fiber_factor():
    area, _ = integrate_surface(ones, FS, SCHEME)
    assert abs(2 * math.pi * area - 2 * math.pi**2) < 1e-9


def test_odd_angular_integrand_vanishes():
    profile = FS.radial_polynomial([1, Fraction(-1, 2)]).evaluator()
    value, _ = integrate_surface(lambda z: z.real * profile(z).real, FS, SCHEME)
    assert abs(value) < 1e-12


def test_non_finite_integrand_reports_node():
    def bad(z):
        out = np.ones(z.shape)
        out[0, 0] = np.nan
        return out

    with pytest.raises(QuadratureEvaluationError) as err:
        integrate_surface(bad, FS, SCHEME)
    assert err.value.node is not None


def test_float_range_is_checked():
    for metric in (FS, BUMP, QUAD):
        area, _ = integrate_surface(ones, metric, SCHEME)
        assert 0 < area < math.inf
    # e^{2phi} overflows near u = 1 for 400 u and underflows to 0 for -400 u
    for slope in (400, -400):
        with pytest.raises(QuadratureEvaluationError) as err:
            integrate_surface(ones, CompactMetric([0, slope]), SCHEME)
        assert err.value.node is not None
    # every sample and contribution is finite, but the area integral is pi * 1e308
    with pytest.raises(QuadratureEvaluationError):
        integrate_surface(lambda z: np.full(z.shape, 1e308), FS, SCHEME)


# -- Calabi identity corpus ------------------------------------------------------------


def test_calabi_constant_curvature():
    check = calabi_identity_check("K", FS, SCHEME)
    assert abs(check.lhs) < 1e-10 and abs(check.rhs) < 1e-10


def test_calabi_curvature_of_bump():
    check = calabi_identity_check("K", BUMP, SCHEME)
    assert check.lhs > 0 and check.rhs > 0
    assert check.relative_residual < 1e-6
    assert check.passes(SCHEME.rel_tolerance)
    # regression value for the common integral
    assert abs(check.lhs - 1.020205286564) < 1e-9


def test_calabi_polynomial_function():
    check = calabi_identity_check([0, 1], BUMP, SCHEME)  # f = u
    assert check.relative_residual < 1e-6


def test_calabi_rejects_non_invariant_f():
    with pytest.raises(ValueError):
        calabi_identity_check(RadialFunction(1, 1), BUMP, SCHEME)
    with pytest.raises(ValueError):
        calabi_identity_check("R", BUMP, SCHEME)


def test_calabi_positivity():
    for metric in (FS, BUMP, QUAD):
        assert calabi_identity_check("K", metric, SCHEME).lhs >= -1e-12


# -- rigidity demo ------------------------------------------------------------------------


def test_rigidity_spherical_metric():
    report = rigidity_demo(FS, SCHEME)
    assert report.numeric_spherical and report.symbolic_spherical
    assert abs(report.i2) < SCHEME.abs_tolerance


def test_rigidity_non_spherical_metrics():
    for metric in (BUMP, QUAD):
        report = rigidity_demo(metric, SCHEME)
        assert not report.numeric_spherical and not report.symbolic_spherical
        assert report.consistent
        assert report.relative_gap < 1e-6


def test_rigidity_verdicts_stable_across_tolerances():
    for tol in (1e-8, 1e-10):
        scheme = QuadratureScheme(abs_tolerance=tol)
        for metric, expected in ((FS, True), (BUMP, False), (QUAD, False)):
            report = rigidity_demo(metric, scheme)
            assert report.numeric_spherical is expected
            assert report.consistent


# -- convergence and consistency ------------------------------------------------------------


def test_doubling_within_error_estimate():
    integrands = [ones, FS.gauss_curvature.evaluator()]
    for metric in (FS, BUMP):
        for f in integrands:
            g = lambda z, f=f: np.asarray(f(z)).real
            value, err = integrate_surface(g, metric, SCHEME)
            refined, _ = integrate_surface(g, metric, SCHEME.refined())
            assert abs(refined - value) <= max(err, 1e-13)


def test_scheme_validation():
    with pytest.raises(ValueError):
        QuadratureScheme(radial_panels=0)
    with pytest.raises(ValueError):
        QuadratureScheme(angular_nodes=8)


def test_taylor_chart_matches_closed_form():
    chart = FS.taylor_chart(8)
    # (1+z zb)^-2 expansion: alternating (k+1) coefficients on the diagonal
    for j in range(5):
        assert chart.e2phi.coeff(j, j).re == (-1) ** j * (j + 1)


# -- closed form ------------------------------------------------------------------------

_z, _zb, _T = sp.symbols("z zb T")
_U = _z * _zb / (1 + _z * _zb)


def _in_u(coeffs):
    return sum((sp.Rational(a.numerator, a.denominator) * _U**j
                for j, a in enumerate(coeffs)), sp.Integer(0))


def _oracle(metric, f_coeffs):
    """K, K_{;zbar zbar}, K_{;zbar zbar z z}, f_{;zbar zbar} and f_{;zbar zbar z z}
    straight from w = (1-u)^2 e^{2 psi} in z and zbar, by sp.diff.  T stands for
    e^{psi(u)}, so each quantity is a rational function of z, zbar and T."""
    psi = _in_u(metric.psi_coeffs)
    E = _T if any(metric.psi_coeffs) else sp.Integer(1)
    dpsi = {v: sp.diff(psi, v) for v in (_z, _zb)}

    def der(e, v):
        return sp.cancel(sp.diff(e, v) + sp.diff(e, _T) * _T * dpsi[v])

    w = (1 - _U) ** 2 * E**2
    log_w_zbar = der(w, _zb) / w
    K = sp.cancel(-2 * der(log_w_zbar, _z) / w)  # -(2/w) d dbar log w

    def zbar_zbar(f):
        df = der(f, _zb)
        return sp.cancel((der(df, _zb) - log_w_zbar * df) / w)

    def z_z(fzz):
        return sp.cancel(der(der(w * fzz, _z) / w, _z) / w)

    f = _in_u(f_coeffs)
    k2, f2 = zbar_zbar(K), zbar_zbar(f)
    return [K, k2, z_z(k2), f2, z_z(f2)]


def _as_sympy(rf, metric):
    """z^k T^c p(u) / (1-u)^m, T as in the oracle."""
    E = _T if any(metric.psi_coeffs) else sp.Integer(1)
    c = sp.Rational(rf.c.numerator, rf.c.denominator)
    return _z**rf.k * E**c * _in_u(rf.p) / (1 - _U) ** rf.m


def _seeded_profile(seed):
    """psi of degree 1 + seed % 3, its constant term included, and a polynomial f."""
    rng = random.Random(f"oracle/{seed}")

    def rational():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(2, 10))

    psi = [rational() for _ in range(2 + seed % 3)]
    return CompactMetric(psi), [rational() for _ in range(3)]


ORACLE_CASES = {
    "FS": (FS, [0, 1]),
    "BUMP": (BUMP, [1, Fraction(-1, 2), 2]),
    "QUAD": (QUAD, [Fraction(1, 3), 0, -1]),
    "constant_psi": (CompactMetric([Fraction(1, 2)]), [0, 1]),
    **{f"seed{seed}": _seeded_profile(seed) for seed in range(3)},
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_closed_form_matches_sympy_oracle_exactly(name):
    metric, f_coeffs = ORACLE_CASES[name]
    f = metric.radial_polynomial(f_coeffs)
    f2 = metric.covariant_zbar_zbar(f)
    mine = [metric.gauss_curvature, metric.k_zbar_zbar, metric.k_zbar_zbar_z_z,
            f2, metric.raise_twice(f2)]
    for quantity, expected in zip(mine, _oracle(metric, f_coeffs)):
        assert sp.cancel(_as_sympy(quantity, metric) - expected) == 0


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_exact_bridge_to_the_series_pipeline(name):
    """r = -w^2 K_{;zbar zbar} / 12 and s = -w^3 K_{;zbar zbar z z} / 12 have
    weight 0, so their closed forms expand to exactly the r and s of the
    Taylor chart."""
    metric, _ = ORACLE_CASES[name]
    chart = metric.taylor_chart(14)
    w = metric.w
    r, s = cartan_r(chart), cartan_s(chart)
    assert r == (w * w * metric.k_zbar_zbar / -12).taylor(r.order)
    assert s == (w * w * w * metric.k_zbar_zbar_z_z / -12).taylor(s.order)


def test_closed_form_curvature_of_fubini_study():
    assert FS.gauss_curvature == FS.radial_polynomial([4])
    assert FS.k_zbar_zbar.p == () and FS.k_zbar_zbar_z_z.p == ()
    assert BUMP.k_zbar_zbar.p != ()


def test_closed_form_is_canonical():
    psi = BUMP.psi_coeffs
    # (1-u) / (1-u)^0 is 1 / (1-u)^-1
    assert RadialFunction(0, 0, 0, [1, -1], psi) == RadialFunction(0, 0, -1, [1], psi)
    zero = BUMP.w - BUMP.w
    assert (zero.c, zero.m, zero.p) == (0, 0, ())
    assert BUMP.w + zero == zero + BUMP.w == BUMP.w  # zero has any weight
    assert FS.w.c == 0 and BUMP.w.c == 2  # psi = 0 merges every weight to 0
    assert BUMP.w / BUMP.w == BUMP.radial_polynomial([1])
    assert BUMP.w * BUMP.w / BUMP.w == BUMP.w
    with pytest.raises(ValueError):
        BUMP.w + BUMP.w * BUMP.w  # two weights c
    with pytest.raises(ValueError):
        BUMP.w / BUMP.radial_polynomial([1, 1])  # a non-constant polynomial
    with pytest.raises(ValueError):
        BUMP.w * FS.w  # different profiles


def test_quadrature_cost_is_bounded(monkeypatch):
    """No sympy algebra, K_{;zbar zbar} derived once, each evaluated function
    compiled once, over the operations of one quadrature-check."""
    algebra = []
    for name in ("cancel", "expand", "simplify"):
        monkeypatch.setattr(sp, name, lambda *a, name=name, **kw: algebra.append(name))
    compiled = []
    lambdify = sp.lambdify

    def counted_lambdify(args, expr, *rest, **kw):
        compiled.append(expr)
        return lambdify(args, expr, *rest, **kw)

    monkeypatch.setattr(sp, "lambdify", counted_lambdify)
    derived = []
    covariant = CompactMetric.covariant_zbar_zbar

    def counted_covariant(self, f):
        derived.append(f)
        return covariant(self, f)

    monkeypatch.setattr(CompactMetric, "covariant_zbar_zbar", counted_covariant)

    metric = CompactMetric(BUMP.psi_coeffs)
    metric.k_zbar_zbar_z_z
    calabi_identity_check("K", metric, SCHEME)
    calabi_identity_check([1, Fraction(-1, 2), 2], metric, SCHEME)
    rigidity_demo(metric, SCHEME)

    assert algebra == []
    assert derived.count(metric.gauss_curvature) == 1 and len(derived) == 2
    # w, K, K_{;zbar zbar}, K_{;zbar zbar z z}, f and its two derivatives
    assert len(compiled) == len(set(compiled)) <= 7
