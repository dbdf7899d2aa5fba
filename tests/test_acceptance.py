"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance (exact zero for symbolic
residuals, explicit float bounds for quadrature) and within its runtime
budget.  Run with `pytest -v -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cartanq.gaussrat import GaussianRational
from cartanq.invariants import RigidSurface, calibrate_c, is_spherical, weight3_invariance_suite
from cartanq.quadrature import (
    CompactMetric,
    QuadratureScheme,
    calabi_identity_check,
    integrate_surface,
    rigidity_demo,
)
from cartanq.series import TruncatedSeries, exp_series, log1p_series
from cartanq.seriesfile import dumps, loads
from cartanq.surface import cartan_r, cartan_s, divergence_form_residual, qisgauss_residuals
from cartanq.transverse import (
    PseudohermitianChart,
    check_qisgauss_trans,
    k_equals_2r_residual,
    verify_bracket_identity,
)
from conftest import chart_corpus, one_plus_rho_chart, random_series

OK = "PASS"
FAIL = "FAIL"


def report(name: str, passed: bool, detail: str = "") -> bool:
    line = f"[{OK if passed else FAIL}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    return passed


def test_criterion_1_exact_identity_suite():
    start = time.monotonic()
    corpus = chart_corpus()
    ok = len(corpus) >= 8
    for chart in corpus:
        g1, g2 = qisgauss_residuals(chart)
        pchart = PseudohermitianChart(chart)
        t1, t2 = check_qisgauss_trans(pchart)
        ok = ok and all(
            s.is_zero
            for s in (
                g1, g2, t1, t2,
                divergence_form_residual(chart),
                k_equals_2r_residual(pchart),
            )
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    assert report(
        "criterion 1: exact-identity suite on chart corpus",
        ok, f"{len(corpus)} charts, {elapsed:.1f}s",
    )


def test_criterion_2_bracket_identity():
    start = time.monotonic()
    ok = verify_bracket_identity().is_zero
    ok = ok and not verify_bracket_identity(perturb=True).is_zero
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1
    assert report(
        "criterion 2: bracket reduction zero, negative control nonzero",
        ok, f"{elapsed:.2f}s",
    )


def test_criterion_3_calibration():
    probes = [Fraction(1, 10), Fraction(1, 16), Fraction(1, 25)]
    base = calibrate_c(probes)
    extended = calibrate_c(probes + [Fraction(1, 32)])
    control = calibrate_c(probes, family="a24")
    ok = base == 96 and extended == 96 and control == 0
    assert report(
        "criterion 3: calibration c = 96, probe-stable, A024 control = 0", ok
    )


def test_criterion_4_sphericity_regression():
    chart = one_plus_rho_chart(order=14)
    r = cartan_r(chart)
    s = cartan_s(chart)
    verdict = is_spherical(chart, 6)
    ok = (
        not verdict.spherical
        and verdict.first_nonzero == ((2, 0), GaussianRational(Fraction(5, 2)))
        and s.constant_term == GaussianRational(5)
    )
    from conftest import flat_chart, round_sphere_chart

    for spherical_chart in (flat_chart(14), round_sphere_chart(14)):
        ok = ok and is_spherical(spherical_chart, 10).spherical
    assert report(
        "criterion 4: first nonzero r = 5/2 at (2,0), s(0) = 5, spherical controls", ok
    )


def test_criterion_5_weight3_scaling():
    F = TruncatedSeries(
        12, {(1, 1): GaussianRational(1), (4, 4): GaussianRational(Fraction(1, 10))}
    )
    checks = weight3_invariance_suite(RigidSurface(F), ts=(1, 4, Fraction(9, 4)))
    ok = all(check.exact for check in checks)
    by_t = {c.t: c for c in checks}
    ok = ok and by_t[Fraction(4)].value_at_t * 64 == by_t[Fraction(4)].value_at_1
    assert report(
        "criterion 5: q11 scales by exactly |lambda|^-6 for t in {4, 9/4}", ok
    )


def test_criterion_6_quadrature():
    start = time.monotonic()
    scheme = QuadratureScheme()
    fs = CompactMetric()
    bump = CompactMetric([0, Fraction(1, 10), Fraction(-1, 10)])
    quad = CompactMetric([0, 0, Fraction(1, 100)])

    area, area_err = integrate_surface(lambda z: np.ones(z.shape), fs, scheme)
    ok = abs(area - math.pi) < 1e-10

    corpus = [("K", fs), ("K", bump), ([0, 1], bump)]
    for f, metric in corpus:
        ok = ok and calabi_identity_check(f, metric, scheme).relative_residual < 1e-6

    near_spherical = CompactMetric([0, Fraction(1, 10**4)])
    for metric in (fs, bump, quad, near_spherical):
        ok = ok and rigidity_demo(metric, scheme).consistent

    doubled = QuadratureScheme(radial_panels=2 * scheme.radial_panels)
    fine, _ = integrate_surface(lambda z: np.ones(z.shape), fs, doubled)
    ok = ok and abs(fine - area) <= max(area_err, 1e-13)

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    assert report(
        "criterion 6: quadrature area/identities/verdicts/convergence",
        ok, f"{elapsed:.1f}s",
    )


def test_criterion_7_series_property_suite():
    start = time.monotonic()
    rng = random.Random(2026)
    ok = True
    for case in range(1000):
        n = rng.randint(1, 10)
        a = random_series(rng, n, density=0.3)
        b = random_series(rng, n, density=0.3)
        c = random_series(rng, n, density=0.3)
        # ring axioms
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        # Leibniz
        ok = ok and (a * b).diff("z") == (
            a.diff("z") * b.truncated(n - 1) + a.truncated(n - 1) * b.diff("z")
        )
        # conjugation anti-automorphism
        ok = ok and (a * b).conjugate() == a.conjugate() * b.conjugate()
        ok = ok and a.diff("z").conjugate() == a.conjugate().diff("zbar")
        # exp/log inversion on the zero-constant part
        v = a - TruncatedSeries.constant(a.constant_term, n)
        ok = ok and log1p_series(
            exp_series(v) - TruncatedSeries.constant(1, n)
        ) == v
        # file round trip
        ok = ok and loads(dumps(a)) == a
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30
    assert report(
        "criterion 7: 1000-case series property suite, all exact",
        ok, f"{elapsed:.1f}s",
    )
