"""Quadrature layer: areas, integration-by-parts identity, rigidity demo."""

import functools
import math
import random

import mpmath
import numpy as np
import pytest
import sympy as sp

from cartanq import quadrature
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


def ones(u):
    return np.ones(u.shape)


# -- surface integrals ---------------------------------------------------------


def test_fubini_study_area():
    area, err = integrate_surface(ones, FS, SCHEME)
    assert abs(area - math.pi) < 1e-10
    assert abs(area - math.pi) <= max(err, 1e-12)


def test_area_with_fiber_factor():
    area, _ = integrate_surface(ones, FS, SCHEME)
    assert abs(2 * math.pi * area - 2 * math.pi**2) < 1e-9


def test_non_finite_integrand_reports_node():
    def bad(u):
        out = np.ones(u.shape)
        out[0] = np.nan
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
    with pytest.raises(QuadratureEvaluationError) as err:
        integrate_surface(lambda u: np.full(u.shape, 1e308), FS, SCHEME)
    assert "sums to inf" in str(err.value) and err.value.node is not None


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
    # f is 'K' or coefficients in u, circle invariant by construction
    with pytest.raises(TypeError):
        calabi_identity_check(RadialFunction(1, 1), BUMP, SCHEME)
    with pytest.raises(ValueError):
        calabi_identity_check("R", BUMP, SCHEME)


def test_calabi_positivity():
    for metric in (FS, BUMP, QUAD):
        assert calabi_identity_check("K", metric, SCHEME).lhs >= -1e-12


# -- rigidity demo ------------------------------------------------------------------------


def test_rigidity_spherical_metric():
    report = rigidity_demo(FS, SCHEME)
    assert report.closed_form_spherical and report.symbolic_spherical
    assert report.i2 == report.i4 == 0.0


def test_rigidity_non_spherical_metrics():
    for metric in (BUMP, QUAD):
        report = rigidity_demo(metric, SCHEME)
        assert not report.closed_form_spherical and not report.symbolic_spherical
        assert report.consistent
        assert report.relative_gap < 1e-6


def test_rigidity_verdicts_are_exact():
    """The verdict does not depend on the size of I2: psi = u/n is not
    spherical however small I2 = O(n^-4) is, down to 2.7e-23 at n = 10^6."""
    near_spherical = [CompactMetric([0, Fraction(1, n)])
                      for n in (300, 10**3, 10**4, 10**5, 10**6)]
    for metric, expected in ((FS, True), (BUMP, False), (QUAD, False),
                             *((m, False) for m in near_spherical)):
        report = rigidity_demo(metric, SCHEME)
        assert report.closed_form_spherical is report.symbolic_spherical is expected


# -- convergence and consistency ------------------------------------------------------------


def test_doubling_within_error_estimate():
    integrands = [ones, FS.gauss_curvature.of_u]
    doubled = QuadratureScheme(radial_panels=2 * SCHEME.radial_panels)
    for metric in (FS, BUMP):
        for f in integrands:
            value, err = integrate_surface(f, metric, SCHEME)
            fine, _ = integrate_surface(f, metric, doubled)
            assert abs(fine - value) <= max(err, 1e-13)


def test_scheme_validation():
    with pytest.raises(ValueError):
        QuadratureScheme(radial_panels=0)
    with pytest.raises(ValueError):
        QuadratureScheme()._replace(radial_panels=0)
    assert QuadratureScheme() == QuadratureScheme(4, 1e-6)
    assert QuadratureScheme(radial_panels=2).rel_tolerance == 1e-6


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


@functools.cache
def _oracle_case(name):
    return _oracle(*ORACLE_CASES[name])


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_closed_form_matches_sympy_oracle_exactly(name):
    metric, f_coeffs = ORACLE_CASES[name]
    f = metric.radial_polynomial(f_coeffs)
    f2 = metric.covariant_zbar_zbar(f)
    mine = [metric.gauss_curvature, metric.k_zbar_zbar, metric.k_zbar_zbar_z_z,
            f2, metric.raise_twice(f2)]
    for quantity, expected in zip(mine, _oracle_case(name)):
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


def test_radial_function_is_immutable():
    f = BUMP.radial_polynomial([1, 2])
    for name in ("k", "c", "m", "p", "psi", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f.of_u is f.of_u  # the compiled evaluator is still cached
    assert f == BUMP.radial_polynomial([1, 2])


def test_closed_form_curvature_of_fubini_study():
    assert FS.gauss_curvature == FS.radial_polynomial([4])
    assert FS.k_zbar_zbar.p == () and FS.k_zbar_zbar_z_z.p == ()
    assert BUMP.k_zbar_zbar.p != ()


def test_closed_form_is_canonical():
    psi = BUMP.psi_coeffs
    # (1-u) / (1-u)^0 is 1 / (1-u)^-1
    assert RadialFunction(0, 0, 0, [1, -1], psi) == RadialFunction(0, 0, -1, [1], psi)
    assert hash(RadialFunction(0, 0, 0, [1, -1], psi)) == hash(RadialFunction(0, 0, -1, [1], psi))
    # c is 0 when psi is, trailing zeros are trimmed, and zero has c = m = 0
    assert RadialFunction(2, 3, 1, [1, 0], [0, 0]) == RadialFunction(2, 0, 1, [1])
    assert RadialFunction(1, 2, 5, [0, 0], psi) == RadialFunction(1, 0, 0, (), psi)
    assert RadialFunction(0, 0, 0, [1], psi) != RadialFunction(1, 0, 0, [1], psi)
    assert RadialFunction(0, 0, 0, [1], psi) != RadialFunction(0, 0, 0, [1])
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
    """No sympy algebra, not even the arithmetic of building an expression,
    K_{;zbar zbar} derived once, each evaluated function compiled once, over
    the operations of one quadrature-check."""
    sp.core.cache.clear_cache()
    algebra = []
    for name in ("cancel", "expand", "simplify"):
        monkeypatch.setattr(sp, name, lambda *a, name=name, **kw: algebra.append(name))
    flattened = []
    for op in (sp.Mul, sp.Add):
        def counted_flatten(cls, seq, flatten=op.flatten.__func__):
            flattened.append(cls.__name__)
            return flatten(cls, seq)

        monkeypatch.setattr(op, "flatten", classmethod(counted_flatten))
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
    passes = []
    nodes = []
    integral_once = quadrature._integral_once

    def counted_integral_once(integrand, metric, panels):
        passes.append(panels)

        def counted(u):
            nodes.append((u.dtype, u.ndim, u.size))
            return integrand(u)

        return integral_once(counted, metric, panels)

    monkeypatch.setattr(quadrature, "_integral_once", counted_integral_once)

    metric = CompactMetric(BUMP.psi_coeffs)
    metric.k_zbar_zbar_z_z
    calabi_identity_check("K", metric, SCHEME)
    calabi_identity_check([1, Fraction(-1, 2), 2], metric, SCHEME)
    integrated = len(passes)
    rigidity_demo(metric, SCHEME)

    assert algebra == []
    assert flattened == []
    assert derived.count(metric.gauss_curvature) == 1 and len(derived) == 2
    # w, K, K_{;zbar zbar}, K_{;zbar zbar z z}, f and its two derivatives
    assert len(compiled) == len(set(compiled)) <= 7
    # one fine pass per side; the rigidity demo reuses the Calabi check on K
    assert len(passes) == integrated == 4
    # each integrand is a function of u, called once on the radial nodes
    assert len(nodes) == 4
    assert set(nodes) == {(np.dtype(float), 1, 32 * SCHEME.radial_panels)}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_radial_integrals_match_the_2d_rule(name):
    """Independent oracle for both sides of the Calabi check on K and on f:
    the area integral of a circle-invariant g is 2 pi int_0^inf g(r) w(r) r dr,
    here by mpmath.quad on the sympy oracle at z = zbar = r, T = e^{psi(u)}."""
    metric, f_coeffs = ORACLE_CASES[name]
    K, k2, k4, f2, f4 = _oracle_case(name)
    f = _in_u(f_coeffs)
    psi = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(metric.psi_coeffs)]

    def area_integral(expr):
        g = sp.lambdify((_z, _zb, _T), expr, modules="mpmath")

        def integrand(r):
            u = r * r / (1 + r * r)
            t = mpmath.exp(mpmath.polyval(psi, u)) if psi else 1
            return g(r, r, t) * (1 - u) ** 2 * t**2 * 2 * mpmath.pi * r

        return float(mpmath.quad(integrand, [0, 1, mpmath.inf]))

    with mpmath.workdps(20):
        expected = [area_integral(e) for e in (k2**2, k4 * K, f2**2, f4 * f)]
    k_check = calabi_identity_check("K", metric, SCHEME)
    f_check = calabi_identity_check(f_coeffs, metric, SCHEME)
    values = [k_check.lhs, k_check.rhs, f_check.lhs, f_check.rhs]
    if name in ("FS", "constant_psi"):  # constant curvature: K_{;zbar zbar} = 0
        assert values[:2] == expected[:2] == [0.0, 0.0]
    for value, reference in zip(values, expected):
        assert abs(value - reference) <= 1e-12 * max(abs(value), abs(reference))


# -- compiled evaluators ------------------------------------------------------------------


def _evaluator_profile(seed):
    """psi of degree 1 + seed % 3 with psi(0) = 0, and a polynomial f."""
    rng = random.Random(f"evaluator/{seed}")

    def rational():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(2, 10))

    psi = [0] + [rational() for _ in range(1 + seed % 3)]
    return CompactMetric(psi), [rational() for _ in range(3)]


EVALUATOR_CASES = {
    **ORACLE_CASES,
    **{f"zero_centre{seed}": _evaluator_profile(seed) for seed in range(30)},
}


def _direct(rf, u):
    """exp(c psi(u)) p(u) / (1 - u)^m in numpy, from the exact coefficients."""
    polyval = np.polynomial.polynomial.polyval
    psi = [float(a) for a in rf.psi] or [0.0]
    p = [float(a) for a in rf.p] or [0.0]
    return np.exp(float(rf.c) * polyval(u, psi)) * polyval(u, p) / (1.0 - u) ** rf.m


@pytest.mark.parametrize("name", EVALUATOR_CASES)
def test_compiled_evaluators_match_direct_numpy(name):
    """Every function the quadrature path compiles, for the metric (w, K,
    K_{;zbar zbar}, K_{;zbar zbar z z}) and for a test function f (f,
    f_{;zbar zbar}, f_{;zbar zbar z z}), agrees on the fine-pass nodes with a
    numpy evaluation that uses no generated code."""
    metric, f_coeffs = EVALUATOR_CASES[name]
    f = metric.radial_polynomial(f_coeffs)
    f2 = metric.covariant_zbar_zbar(f)
    compiled = [metric.w, metric.gauss_curvature, metric.k_zbar_zbar,
                metric.k_zbar_zbar_z_z, f, f2, metric.raise_twice(f2)]
    u, _ = quadrature._radial_rule(2 * SCHEME.radial_panels)
    assert u.size == 32 * SCHEME.radial_panels
    for rf in compiled:
        value = np.broadcast_to(rf.of_u(u), u.shape)
        np.testing.assert_allclose(value, _direct(rf, u), rtol=1e-13, atol=0)
        # compiled against exp alone, so the code may read no other global
        assert set(rf.of_u.__code__.co_names) <= {"exp"}


EVALUATOR_EDGE_CASES = {
    "zero": BUMP.w - BUMP.w,
    "length_one_p": RadialFunction(0, -2, 0, [Fraction(-3, 7)], BUMP.psi_coeffs),
    "c_zero": FS.w,
    "m_negative": RadialFunction(0, -2, -3, [1, Fraction(1, 2)], BUMP.psi_coeffs),
    "m_positive": RadialFunction(0, 4, 3, [Fraction(-1, 5), 0, 2], QUAD.psi_coeffs),
    "constant_psi": CompactMetric([Fraction(1, 3)]).w,
}


def test_evaluator_edge_cases_have_their_forms():
    cases = EVALUATOR_EDGE_CASES
    assert (cases["zero"].c, cases["zero"].m, cases["zero"].p) == (0, 0, ())
    assert len(cases["length_one_p"].p) == 1 and cases["length_one_p"].m == 0
    assert cases["c_zero"].c == 0 and cases["c_zero"].m != 0
    assert cases["m_negative"].m < 0 < cases["m_positive"].m
    assert len(cases["constant_psi"].psi) == 1 and cases["constant_psi"].c != 0


@pytest.mark.parametrize("name", EVALUATOR_EDGE_CASES)
def test_evaluator_edge_cases_match_direct_numpy(name):
    rf = EVALUATOR_EDGE_CASES[name]
    u, _ = quadrature._radial_rule(2 * SCHEME.radial_panels)
    value = np.broadcast_to(rf.of_u(u), u.shape)
    np.testing.assert_allclose(value, _direct(rf, u), rtol=1e-13, atol=0)
    assert set(rf.of_u.__code__.co_names) <= {"exp"}
    if name == "zero":
        assert np.all(value == 0.0)  # exact, and never nan


@pytest.mark.parametrize("name", EVALUATOR_CASES)
def test_closed_form_verdict_matches_the_taylor_chart(name):
    metric, _ = EVALUATOR_CASES[name]
    report = rigidity_demo(metric, SCHEME)
    assert report.closed_form_spherical is report.symbolic_spherical
