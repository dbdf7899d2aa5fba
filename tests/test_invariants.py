"""Sphericity verdicts, normal-form gatekeeping, calibration, weight-3 scaling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ScalingCheck,
    SphericityVerdict,
    calibrate_c,
    is_spherical,
    weight3_invariance_suite,
    weight3_scaling,
)
from cartanq.quadrature import CalabiCheck, QuadratureScheme, RigidityReport
from cartanq.series import TruncatedSeries
from cartanq.surface import cartan_r, cartan_s
from cartanq.transverse import FiberPoint, FiberRepresentative, PseudohermitianChart
from conftest import flat_chart, one_plus_rho_chart, round_sphere_chart


def rigid(coeffs, order=12):
    base = {(1, 1): GaussianRational(1)}
    base.update({kl: GaussianRational(v) for kl, v in coeffs.items()})
    return RigidSurface(TruncatedSeries(order, base))


# -- result records -------------------------------------------------------------------

PROBES = (Fraction(1, 10), Fraction(1, 16), Fraction(1, 25))

# class, its fields in constructor order, a function that builds fresh values
RECORDS = [
    (FiberPoint, "lam", lambda: (GaussianRational(1, 2),)),
    (FiberRepresentative, "series scale",
     lambda: (TruncatedSeries(4, {(1, 1): 1}), GaussianRational(Fraction(1, 125)))),
    (SphericityVerdict, "spherical verified_order first_nonzero",
     lambda: (False, 6, ((2, 0), GaussianRational(Fraction(5, 2))))),
    (ScalingCheck, "t value_at_1 value_at_t residual",
     lambda: (Fraction(4), GaussianRational(96), GaussianRational(Fraction(3, 2)),
              GaussianRational(0))),
    (QuadratureScheme, "radial_panels rel_tolerance", lambda: (8, 1e-9)),
    (CalabiCheck, "lhs rhs relative_residual", lambda: (2.5, 2.5, 0.0)),
    (RigidityReport, "i2 i4 relative_gap closed_form_spherical symbolic_spherical",
     lambda: (1.25, 1.25, 1e-12, False, False)),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, values):
    """Immutable values: built by position or keyword, equal and hashed by
    their fields, and no attribute can be set."""
    fields = fields.split()
    record = cls(*values())
    assert [getattr(record, name) for name in fields] == list(values())
    again = cls(**dict(zip(fields, values())))
    assert again == record and hash(again) == hash(record)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_verdict_truth_is_its_sphericity():
    for chart, order in ((flat_chart(), 10), (one_plus_rho_chart(), 6)):
        verdict = is_spherical(chart, order)
        assert bool(verdict) is verdict.spherical


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


def test_rigid_surface_rejects_terms_linear_in_z_or_zbar():
    """Normal form removes z^k zbar and z zbar^k by z -> z + f(z); read as
    they stand they would move A^0_44 by -|a_41|^2."""
    a41 = GaussianRational(Fraction(1, 3), Fraction(1, 2))
    F = {(1, 1): 1, (4, 1): a41, (1, 4): a41.conjugate(), (4, 4): Fraction(1, 7)}
    with pytest.raises(NormalFormViolationError) as err:
        RigidSurface(TruncatedSeries(12, F))
    assert str(err.value) == "term z^1 zbar^4 cannot be normalized here"


# Admissible monomials through degree 12: k, l >= 2 without the trace terms,
# each drawn with its mirror so that F is real.
_ADMISSIBLE = [(k, l) for k in range(2, 11) for l in range(k, 13 - k)
               if (k, l) not in ((2, 2), (2, 3), (3, 3))]
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@st.composite
def hermitian_F(draw):
    """(order, {(k, l): coefficient}) of a real F = z zbar + terms, and
    whether a term z^k zbar (k >= 3) was drawn with its mirror.  A_24 and
    A_44 are drawn every time, and may be 0."""
    order = draw(st.integers(8, 12))
    terms = {(1, 1): GaussianRational(1)}
    drawn = draw(st.lists(st.sampled_from(_ADMISSIBLE), max_size=3, unique=True))
    for k, l in [(2, 4), (4, 4), *drawn]:
        if k + l <= order:
            c = GaussianRational(draw(_SMALL), 0 if k == l else draw(_SMALL))
            terms[(k, l)] = c
            terms[(l, k)] = c.conjugate()
    linear = draw(st.booleans())
    if linear:
        k = draw(st.integers(3, order - 1))
        c = GaussianRational(draw(_SMALL) or 1, draw(_SMALL))
        terms[(k, 1)] = c
        terms[(1, k)] = c.conjugate()
    return order, terms, linear


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(hermitian_F())
def test_normal_form_coefficients_give_r0_and_s0(drawn):
    """r(0) = 8 A^0_24 and s(0) = 96 A^0_44 on every F that RigidSurface
    accepts, an absent coefficient read as 0; a term z^k zbar is refused."""
    order, terms, linear = drawn
    F = TruncatedSeries(order, terms)
    if linear:
        with pytest.raises(NormalFormViolationError):
            RigidSurface(F)
        return
    surface = RigidSurface(F)
    A0 = surface.coeffs_A0
    zero = GaussianRational(0)
    assert cartan_r(surface.chart).constant_term == A0.get((2, 4), zero) * 8
    assert cartan_s(surface.chart).constant_term == A0.get((4, 4), zero) * 96


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
    c = calibrate_c([Fraction(1, 10), Fraction(1, 16), Fraction(1, 25)])
    assert c == 96 and type(c) is Fraction


def test_calibrate_c_stable_under_extra_probe():
    probes = [Fraction(1, 10), Fraction(1, 16), Fraction(1, 25), Fraction(1, 32)]
    assert calibrate_c(probes) == 96


def test_calibrate_c_probe_set_independent():
    assert calibrate_c([Fraction(1, 7), Fraction(1, 13), Fraction(1, 19)]) == 96


def test_calibrate_c_negative_control_family():
    c = calibrate_c([Fraction(1, 10), Fraction(1, 16), Fraction(1, 25)], family="a24")
    assert c == 0


def test_calibrate_c_probe_validation():
    with pytest.raises(InsufficientProbesError):
        calibrate_c([Fraction(1, 10)])
    with pytest.raises(InsufficientProbesError):
        calibrate_c([Fraction(1, 10), Fraction(1, 10), Fraction(1, 16)])
    with pytest.raises(InsufficientProbesError):
        calibrate_c([Fraction(0), Fraction(1, 10), Fraction(1, 16)])
    with pytest.raises(
        InsufficientProbesError, match=r"^need at least 3 distinct nonzero probes$"
    ):
        calibrate_c(PROBES[:2])


def test_calibrate_c_unknown_family_is_refused_before_the_first_probe(monkeypatch):
    def refuse(chart):
        raise AssertionError("probe computed")

    monkeypatch.setattr(invariants, "cartan_s", refuse)
    with pytest.raises(CalibrationError) as err:
        calibrate_c([1, 2, 3], family="a66")
    assert str(err.value) == "unknown family 'a66'; known families: a44, a24"


def _off_the_law(chart):
    """s - s^2/96: on a44 its value at 0 is 96 eps - 96 eps^2, off the law."""
    s = cartan_s(chart)
    return s - s * s * Fraction(1, 96)


@pytest.mark.parametrize("probes, message", [
    (PROBES, "Q;11(0) = 45/8 at eps = 1/16, not c * eps = 27/5"),
    ((1, Fraction(1, 10), 2), "Q;11(0) = 216/25 at eps = 1/10, not c * eps = 0"),
], ids=["default_probes", "first_probe_zero"])
def test_calibrate_c_refuses_a_family_off_the_weight_law(monkeypatch, probes, message):
    monkeypatch.setattr(invariants, "cartan_s", _off_the_law)
    with pytest.raises(CalibrationError) as err:
        calibrate_c(probes)
    assert str(err.value) == message


@pytest.mark.parametrize("count", [3, 32])
def test_calibrate_c_runs_the_pipeline_once_per_probe(monkeypatch, count):
    calls = []

    def counted(chart):
        calls.append(chart)
        return cartan_s(chart)

    monkeypatch.setattr(invariants, "cartan_s", counted)
    probes = [Fraction(1, d) for d in range(2, 2 + count)]
    assert calibrate_c(probes) == 96
    assert len(calls) == count


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


@pytest.mark.parametrize("t", [0, -4, 2])
def test_weight3_scaling_rejects_non_square_rescaling(t):
    chart = PseudohermitianChart(rigid({}).chart)
    with pytest.raises(ValueError, match=rf"^rescaling t = {t} is not a rational square$"):
        weight3_scaling(chart, [t])


def test_weight3_spherical_trivial():
    for check in weight3_invariance_suite(rigid({})):
        assert check.exact and not check.value_at_1
