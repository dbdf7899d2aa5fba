"""Surface-level pipeline: conformal factor -> Gauss curvature -> Cartan's r and s.

A chart carries the metric e^{2phi}|dz|^2 through the series w := e^{2phi}
rather than phi itself: phi(0) is typically irrational (e.g. (1/2) log 2 for
the rigid model surface), but every formula shipped here is "even" in
e^{phi}, i.e. uses only integer powers of w, so all coefficients stay in the
Gaussian rationals.  The log-derivative b = 2 D phi = Dw/w is the only other
chart datum the downstream formulas consume.

Covariant derivatives in the unitary coframe e^{phi} dz are applied letter by
letter; each letter lowers the exact order by one and contributes a factor
e^{-phi}.  A word of L letters therefore carries e^{-L phi}, a power of w only
when L is even, so only even words are accepted.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import update_wrapper

from .errors import (
    InsufficientOrderError,
    MalformedDefiningFunctionError,
    NotStrictlyPseudoconvexError,
)
from .gaussrat import GaussianRational
from .series import TruncatedSeries, log1p_series, reciprocal


def per_chart(fn):
    """fn(chart, *args), derived once per chart and argument tuple: the value
    is kept in ``chart._cache`` under ``(fn, *args)``, so every formula that
    needs it shares one object."""

    def derived(chart, *args):
        key = (fn, *args)
        if key not in chart._cache:
            chart._cache[key] = fn(chart, *args)
        return chart._cache[key]

    return update_wrapper(derived, fn)


class SurfaceChart:
    """Metric e^{2phi}|dz|^2 on a chart, stored as the real series w = e^{2phi}.

    The constant term of w must be a positive rational (strict pseudoconvexity
    of the associated CR structure at the chart center).  Each quantity
    derived from w is kept in ``_cache`` by :func:`per_chart`.
    """

    def __init__(self, e2phi: TruncatedSeries):
        if not e2phi.real_flag:
            raise NotStrictlyPseudoconvexError("e^{2phi} must be a real series")
        c = e2phi.constant_term
        if c.im or c.re <= 0:
            raise NotStrictlyPseudoconvexError(
                f"e^{{2phi}} has non-positive value {c} at the chart center"
            )
        self.e2phi = e2phi
        self._cache = {}

    @property
    def order(self) -> int:
        return self.e2phi.order

    @per_chart
    def w_power(self, k: int) -> TruncatedSeries:
        """e^{2k phi} = w^k for an integer k; exact order N.

        Each power is the power next to it toward w^0 times w or 1/w (w^0
        itself as w times 1/w), so every formula that needs w^k shares one
        series."""
        if k == 1:
            return self.e2phi
        if k == -1:
            return reciprocal(self.e2phi)
        unit = 1 if k > 0 else -1
        return self.w_power(k - unit) * self.w_power(unit)

    @property
    @per_chart
    def b(self) -> TruncatedSeries:
        """b = 2 D phi = D(e^{2phi}) / e^{2phi}; exact order N - 1."""
        return self.e2phi.diff("z") * self.w_power(-1)

    @property
    @per_chart
    def bbar(self) -> TruncatedSeries:
        return self.b.conjugate()

    def __repr__(self):
        return (
            f"SurfaceChart(order={self.order}, e2phi(0)={self.e2phi.constant_term})"
        )


def phi_from_line_bundle_metric(h: TruncatedSeries) -> SurfaceChart:
    """Chart of the circle bundle calibrated by a line-bundle metric h.

    Computes e^{2phi} = -D Dbar log h.  The additive constant log h(0) is
    killed by the mixed derivative, so only log(h/h(0)) is ever expanded and
    everything stays rational.
    """
    if not h.real_flag:
        raise NotStrictlyPseudoconvexError("h must be a real series")
    h0 = h.constant_term
    if h0.im or h0.re <= 0:
        raise NotStrictlyPseudoconvexError(
            f"h has non-positive value {h0} at the chart center"
        )
    if h.order < 4:
        raise InsufficientOrderError("line-bundle metric needs order >= 4")
    log_rel = log1p_series(h * (GaussianRational(1) / h0) - TruncatedSeries.constant(1, h.order))
    e2phi = -log_rel.diff("z").diff("zbar")
    c = e2phi.constant_term
    if c.im or c.re <= 0:
        raise NotStrictlyPseudoconvexError(
            f"-D Dbar log h = {c} at the center is not positive"
        )
    return SurfaceChart(e2phi)


def phi_from_rigid_defining(F: TruncatedSeries) -> SurfaceChart:
    """Chart of the rigid hypersurface Im w = F(z, zbar).

    Requires F = z zbar + (total degree >= 4); the realization f = -i D F
    gives D fbar - Dbar f = 2i F_{z zbar}, i.e. e^{2phi} = 2 F_{z zbar}, which
    is 2 at the origin.
    """
    if not F.real_flag:
        raise MalformedDefiningFunctionError("F must be a real series")
    if F.coeff(1, 1) != GaussianRational(1):
        raise MalformedDefiningFunctionError("F must have z*zbar coefficient 1")
    for k, l in F.coeffs:
        if (k, l) != (1, 1) and k + l < 4:
            raise MalformedDefiningFunctionError(
                f"F has a forbidden low-degree term z^{k} zbar^{l}"
            )
    e2phi = F.diff("z").diff("zbar") * 2
    return SurfaceChart(e2phi)


@per_chart
def gauss_curvature(chart: SurfaceChart) -> TruncatedSeries:
    """Gauss curvature K = -4 e^{-2phi} D Dbar phi, in the even form
    K = -2 (w * D Dbar w - Dw * Dbar w) / w^3; exact order N - 2."""
    w = chart.e2phi
    dw = w.diff("z")
    dbw = w.diff("zbar")
    ddw = dw.diff("zbar")
    return (w * ddw - dw * dbw) * chart.w_power(-3) * Fraction(-2)


def covariant_derivative(
    f: TruncatedSeries, word: Iterable[str], chart: SurfaceChart
) -> TruncatedSeries:
    """Repeated covariant derivative of f in the unitary coframe e^{phi} dz,
    for a word of an even number L of letters 'z' and 'zbar'.

    After k letters z and l letters zbar the value is S e^{-(k+l) phi}; the
    next z letter makes S <- D S - k b S and the next zbar letter
    S <- Dbar S - l bbar S, so the first of each needs no product.  The
    result is S w^{-L/2}.
    """
    word = tuple(word)
    if len(word) > f.order:
        raise InsufficientOrderError(
            f"word of length {len(word)} exceeds available order {f.order}"
        )
    if len(word) % 2:
        raise ValueError(f"covariant word {word!r} has an odd number of letters")
    S = f
    k = l = 0
    for letter in word:
        if letter == "z":
            var, b, coef = "z", chart.b, -k
            k += 1
        elif letter == "zbar":
            var, b, coef = "zbar", chart.bbar, -l
            l += 1
        else:
            raise ValueError(f"unknown covariant letter {letter!r}")
        dS = S.diff(var)
        S = dS + b * S.truncated(dS.order) * coef if coef else dS
    return S * chart.w_power(-len(word) // 2)


@per_chart
def cartan_r(chart: SurfaceChart) -> TruncatedSeries:
    """Cartan's curvature function r, a third-order operator applied to bbar:
    r = (1/6)(Dbar^2 D bbar - 3 bbar D Dbar bbar + 2 bbar^2 D bbar
              - D bbar * Dbar bbar); exact order N - 4, always rational.

    Every term carries z-grade 2 on rotationally symmetric charts, which pins
    the placement of the derivatives in the cubic term."""
    bb = chart.bbar
    d_bb = bb.diff("z")
    db_bb = bb.diff("zbar")
    t1 = d_bb.diff("zbar").diff("zbar")
    t2 = bb * d_bb.diff("zbar")
    t3 = bb * bb * d_bb
    t4 = d_bb * db_bb
    return (t1 - t2 * 3 + t3 * 2 - t4) * Fraction(1, 6)


@per_chart
def cartan_s(chart: SurfaceChart) -> TruncatedSeries:
    """Fiber-stripped weight-3 representative s = D^2 r - 3 (Dr) b + r (2 b^2 - Db).

    The divergence form s = e^{4phi} D(e^{-2phi} D(e^{-2phi} r)) is an
    independent check of this formula; see :func:`divergence_form_residual`.
    """
    r = cartan_r(chart)
    b = chart.b
    dr = r.diff("z")
    return dr.diff("z") - dr * b * 3 + r * (b * b * 2 - b.diff("z"))


def weighted_words(f: TruncatedSeries, chart: SurfaceChart):
    """e^{4phi} f_{;zbar zbar} and e^{6phi} f_{;zbar zbar z z}, the two
    covariant words of the curvature identities; both are linear in f."""
    f2 = covariant_derivative(f, ("zbar", "zbar"), chart)
    f4 = covariant_derivative(f, ("zbar", "zbar", "z", "z"), chart)
    return chart.w_power(2) * f2, chart.w_power(3) * f4


@per_chart
def qisgauss_residuals(chart: SurfaceChart):
    """Exact residuals of the two curvature identities
    12 r + e^{4phi} K_{;zbar zbar} and 12 s + e^{6phi} K_{;zbar zbar z z}."""
    k2, k4 = weighted_words(gauss_curvature(chart), chart)
    return cartan_r(chart) * 12 + k2, cartan_s(chart) * 12 + k4


def divergence_form_residual(chart: SurfaceChart) -> TruncatedSeries:
    """s - e^{4phi} D(e^{-2phi} D(e^{-2phi} r)); identically zero."""
    s = cartan_s(chart)
    w_inv = chart.w_power(-1)
    inner = (w_inv * cartan_r(chart)).diff("z")
    return s - chart.w_power(2) * (w_inv * inner).diff("z")
