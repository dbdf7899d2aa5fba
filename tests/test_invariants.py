"""Sphericity verdicts, normal-form gatekeeping, calibration, weight-3 scaling."""

from fractions import Fraction

import pytest

from cartanq import invariants
from cartanq.errors import (
    CalibrationError,
    CartanQError,
    InsufficientOrderError,
    InsufficientProbesError,
    NormalFormViolationError,
)
from cartanq.gaussrat import GaussianRational
from cartanq.invariants import (
    RigidSurface,
    calibrate_c,
    is_spherical,
    lagrange_interpolate,
    weight3_invariance_suite,
)
from cartanq.series import TruncatedSeries
from cartanq.surface import cartan_r, cartan_s
from conftest import flat_chart, one_plus_rho_chart, round_sphere_chart


def rigid(coeffs, order=12):
    base = {(1, 1): GaussianRational(1)}
    base.update({kl: GaussianRational(v) for kl, v in coeffs.items()})
    return RigidSurface(TruncatedSeries(order, base))


# -- RigidSurface gatekeeping ------------------------------------------------------


def test_rigid_surface_accepts_normal_form():
    surface = rigid({(4, 4): Fraction(1, 10)})
    assert surface.coeffs_A0 == {(4, 4): GaussianRational(Fraction(1, 10))}


def test_rigid_surface_rejects_harmonic_terms():
    with pytest.raises(NormalFormViolationError):
        rigid({(4, 0): 1, (0, 4): 1})


def test_rigid_surface_rejects_trace_violations():
    for kl in ((2, 2), (3, 3)):
        with pytest.raises(NormalFormViolationError):
            rigid({kl: 1})
    with pytest.raises(NormalFormViolationError):
        rigid({(2, 3): 1, (3, 2): 1})


# -- sphericity -------------------------------------------------------------------------


def test_spherical_charts():
    for chart in (flat_chart(), round_sphere_chart()):
        verdict = is_spherical(chart, 10)
        assert verdict.spherical and verdict.verified_order == 10
        assert verdict.first_nonzero is None


def test_nonspherical_regression():
    verdict = is_spherical(one_plus_rho_chart(), 6)
    assert not verdict.spherical
    assert verdict.first_nonzero == ((2, 0), GaussianRational(Fraction(5, 2)))


def test_is_spherical_order_guard():
    chart = flat_chart(order=8)
    available = cartan_r(chart).order
    with pytest.raises(InsufficientOrderError):
        is_spherical(chart, available + 1)


def test_is_spherical_rejects_negative_order():
    # a negative order would verify nothing and still report "spherical"
    with pytest.raises(CartanQError):
        is_spherical(one_plus_rho_chart(), -3)


def test_spherical_implies_q11_zero():
    surface = rigid({})
    assert is_spherical(surface.chart, cartan_r(surface.chart).order)
    assert cartan_s(surface.chart).constant_term == GaussianRational(0)


# -- q11 at the origin ----------------------------------------------------------------------


def test_q11_values():
    assert cartan_s(rigid({}).chart).constant_term == GaussianRational(0)
    eps = Fraction(1, 10)
    assert cartan_s(rigid({(4, 4): eps}).chart).constant_term == GaussianRational(96 * eps)


def test_q11_a24_family_vanishes_at_origin():
    eps = Fraction(1, 10)
    surface = rigid({(2, 4): eps, (4, 2): eps})
    assert cartan_s(surface.chart).constant_term == GaussianRational(0)


# -- calibration -------------------------------------------------------------------------------


def test_calibrate_c_default_probes():
    result = calibrate_c([Fraction(1, 10), Fraction(1, 16), Fraction(1, 25)])
    assert result.c_value == 96
    assert result.interpolated_polynomial == (Fraction(0), Fraction(96))


def test_calibrate_c_stable_under_extra_probe():
    probes = [Fraction(1, 10), Fraction(1, 16), Fraction(1, 25), Fraction(1, 32)]
    result = calibrate_c(probes)
    assert result.c_value == 96
    assert result.interpolated_polynomial == (Fraction(0), Fraction(96))


def test_calibrate_c_probe_set_independent():
    alt = calibrate_c([Fraction(1, 7), Fraction(1, 13), Fraction(1, 19)])
    assert alt.c_value == 96


def test_calibrate_c_negative_control_family():
    result = calibrate_c(
        [Fraction(1, 10), Fraction(1, 16), Fraction(1, 25)], family="a24"
    )
    assert result.c_value == 0


def test_calibrate_c_probe_validation():
    with pytest.raises(InsufficientProbesError):
        calibrate_c([Fraction(1, 10)])
    with pytest.raises(InsufficientProbesError):
        calibrate_c([Fraction(1, 10), Fraction(1, 10), Fraction(1, 16)])
    with pytest.raises(InsufficientProbesError):
        calibrate_c([Fraction(0), Fraction(1, 10), Fraction(1, 16)])


def test_calibrate_c_unknown_family_is_refused_before_the_first_probe(monkeypatch):
    def refuse(chart):
        raise AssertionError("probe computed")

    monkeypatch.setattr(invariants, "cartan_s", refuse)
    with pytest.raises(CalibrationError) as err:
        calibrate_c([1, 2, 3], family="a66")
    assert str(err.value) == "unknown family 'a66'; known families: a44, a24"


def test_lagrange_interpolation_exact():
    # y = x^2 - x/3 through three exact points
    pts = [(Fraction(1), Fraction(2, 3)), (Fraction(2), Fraction(10, 3)),
           (Fraction(-1), Fraction(4, 3))]
    assert lagrange_interpolate(pts) == [Fraction(0), Fraction(-1, 3), Fraction(1)]


# -- weight-3 scaling -----------------------------------------------------------------------------


def test_weight3_scaling_suite():
    surface = rigid({(4, 4): Fraction(1, 10)})
    checks = weight3_invariance_suite(surface)
    assert [c.t for c in checks] == [Fraction(1), Fraction(4), Fraction(9, 4)]
    for check in checks:
        assert check.exact
    by_t = {c.t: c for c in checks}
    assert by_t[Fraction(4)].value_at_t == by_t[Fraction(4)].value_at_1 / 64
    ratio = by_t[Fraction(9, 4)].value_at_t / by_t[Fraction(9, 4)].value_at_1
    assert ratio == GaussianRational(Fraction(4, 9) ** 3)


def test_weight3_spherical_trivial():
    for check in weight3_invariance_suite(rigid({})):
        assert check.exact and not check.value_at_1
