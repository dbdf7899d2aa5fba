"""Shared fixtures and exact-series generators for the test suite."""

import random
from fractions import Fraction

import pytest

from cartanq.gaussrat import GaussianRational
from cartanq.series import TruncatedSeries, reciprocal
from cartanq.surface import SurfaceChart, phi_from_rigid_defining


def random_series(rng: random.Random, order: int, density: float = 0.4) -> TruncatedSeries:
    """Sparse random series with small Gaussian-rational coefficients."""
    coeffs = {}
    for k in range(order + 1):
        for l in range(order + 1 - k):
            if rng.random() < density:
                re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                im = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                coeffs[(k, l)] = GaussianRational(re, im)
    return TruncatedSeries(order, coeffs)


def random_real_series(rng: random.Random, order: int, density: float = 0.4) -> TruncatedSeries:
    s = random_series(rng, order, density)
    return s + s.conjugate()


def random_positive_metric(rng: random.Random, order: int) -> TruncatedSeries:
    """Random real polynomial e^{2phi} with positive constant term."""
    s = random_real_series(rng, order, density=0.25)
    bump = abs(s.constant_term.re) + Fraction(rng.randint(1, 5))
    return s - TruncatedSeries.constant(s.constant_term, order) + TruncatedSeries.constant(bump, order)


def round_sphere_chart(order: int = 14) -> SurfaceChart:
    one = TruncatedSeries.constant(1, order)
    rho = TruncatedSeries(order, {(1, 1): 1})
    return SurfaceChart(reciprocal(one + rho) ** 2)


def flat_chart(order: int = 14) -> SurfaceChart:
    return SurfaceChart(TruncatedSeries.constant(1, order))


def one_plus_rho_chart(order: int = 14) -> SurfaceChart:
    one = TruncatedSeries.constant(1, order)
    rho = TruncatedSeries(order, {(1, 1): 1})
    return SurfaceChart(one + rho)


def f_eps_chart(eps: Fraction, order: int = 12) -> SurfaceChart:
    F = TruncatedSeries(
        order, {(1, 1): GaussianRational(1), (4, 4): GaussianRational(eps)}
    )
    return phi_from_rigid_defining(F)


def chart_corpus():
    """The exact-identity corpus: flat, round, 1+z*zb, three seeded random
    polynomial metrics at N = 14, and two rigid F_eps charts."""
    charts = [
        flat_chart(),
        round_sphere_chart(),
        one_plus_rho_chart(),
    ]
    for seed in (11, 23, 47):
        rng = random.Random(seed)
        charts.append(SurfaceChart(random_positive_metric(rng, 14)))
    charts.append(f_eps_chart(Fraction(1, 10)))
    charts.append(f_eps_chart(Fraction(1, 16)))
    return charts


@pytest.fixture(scope="session")
def corpus():
    return chart_corpus()


@pytest.fixture
def products(monkeypatch):
    """Every series-by-series product made while the test runs, as
    (a, b, a * b); products by a scalar are not listed."""
    made = []
    inner = TruncatedSeries.__mul__

    def counted(a, b):
        out = inner(a, b)
        if isinstance(b, TruncatedSeries):
            made.append((a, b, out))
        return out

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    return made
