"""Cartan's r against Tresse's relative invariant of the Segre ODE: an oracle
for r that shares no formula with bbar, and needs no 1/w and no covariant
derivative.

A chart w with w(0) = 2 is the chart of the rigid hypersurface v = F(z, zbar)
with F = (D Dbar)^-1 (w / 2) = z zbar + H (``phi_from_rigid_defining`` reads
w = 2 F_{z zbar}); r does not change when w is scaled by a constant, since
bbar = Dbar w / w.  The Segre varieties w = wbar_0 + 2i F(z, sigma) solve the
ODE w'' = 2i Phi(z, w' / 2i), where Phi(z, q) = F_zz(z, sigma) and sigma(z, q)
solves F_z(z, sigma) = q, that is sigma = q - H_z(z, sigma).  Tresse's
invariant J = d^4 Phi / dq^4, read at q = F_z(z, zbar), is 48 r w^-3 as a
whole series through r's order (E. Cartan, 1932; Merker, Electron. J.
Differential Equations, 2010, for the rigid form).

A series in (z, sigma) or (z, q) keeps sigma or q in its second slot.
"""

import inspect
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cartanq import surface
from cartanq.gaussrat import GaussianRational
from cartanq.series import TruncatedSeries
from cartanq.surface import SurfaceChart
from conftest import chart_corpus, random_positive_metric, substitute


def tresse_residual(chart: SurfaceChart) -> TruncatedSeries:
    """J - 48 r w^-3 through the lower of the two orders, with w scaled to
    w(0) = 2; r is read through ``surface.cartan_r``."""
    w = chart.e2phi * (2 / chart.e2phi.constant_term.re)
    F = TruncatedSeries(w.order + 2, {
        (k + 1, l + 1): c * Fraction(1, 2 * (k + 1) * (l + 1))
        for (k, l), c in w.coeffs.items()
    })
    h_z = (F - TruncatedSeries(F.order, {(1, 1): 1})).diff("z")
    q = TruncatedSeries(h_z.order, {(0, 1): 1})
    sigma = q
    while True:  # each step gains at least one degree
        step = q - substitute(h_z, sigma)
        if step == sigma:
            break
        sigma = step
    J = substitute(h_z.diff("z"), sigma)
    for _ in range(4):
        J = J.diff("zbar")
    J = substitute(J, F.diff("z"))
    scaled = SurfaceChart(w)
    rhs = surface.cartan_r(scaled) * scaled.w_power(-3) * 48
    order = min(J.order, rhs.order)
    return J.truncated(order) - rhs.truncated(order)


def test_tresse_invariant_is_r_on_the_corpus():
    """Flat and round charts (r = 0), 1 + z zbar, three random metrics and
    the two rigid F_eps charts, each through r's order N - 4."""
    for chart in chart_corpus():
        residual = tresse_residual(chart)
        assert residual.is_zero and residual.order == chart.order - 4


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.integers(4, 12),
       a=st.builds(GaussianRational, _SMALL, _SMALL).filter(bool))
def test_tresse_invariant_is_r_on_random_metrics(seed, order, a):
    """A linear term a z + conj(a) zbar in w, a cubic term of F, makes
    b(0) = a / w(0) nonzero, so bbar and every product of it are live at the
    origin."""
    w = random_positive_metric(random.Random(seed), order)
    w = w + TruncatedSeries(order, {(1, 0): a, (0, 1): a.conjugate()})
    chart = SurfaceChart(w)
    assume(chart.b.constant_term)  # the drawn z term may cancel a
    assert tresse_residual(chart).is_zero


def test_tresse_oracle_catches_a_changed_coefficient_of_r(monkeypatch):
    """cartan_r with the 3 of its term 3 bbar D Dbar bbar changed to 2 fails
    the oracle on every metric tried."""
    source = inspect.getsource(surface.cartan_r)
    assert source.count("t2 * 3") == 1
    namespace = dict(vars(surface))
    exec(source.replace("t2 * 3", "t2 * 2"), namespace)
    monkeypatch.setattr(surface, "cartan_r", namespace["cartan_r"])
    for seed in (1, 2, 3):
        chart = SurfaceChart(random_positive_metric(random.Random(seed), 12))
        assert not tresse_residual(chart).is_zero
