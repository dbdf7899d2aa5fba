"""Command-line surface: parse an input surface, run the pipelines, and print
one deterministic JSON report on stdout.

Exit codes: 0 success, 1 usage/domain error, 2 exact-identity violation (the
tool's core promise is that every proved identity vanishes; a nonzero residual
is a hard failure even if everything else succeeded).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import CartanQError, digit_limit_message
from .expr import MAX_PROFILE_DEGREE, parse_expression, parse_radial_polynomial
from .gaussrat import GaussianRational
from .invariants import (
    CALIBRATION_ORDER,
    FAMILIES,
    RigidSurface,
    calibrate_c,
    is_spherical,
    weight3_scaling,
)
from .series import TruncatedSeries
from .seriesfile import read_int, read_rational, read_series
from .surface import (
    SurfaceChart,
    cartan_r,
    cartan_s,
    divergence_form_residual,
    gauss_curvature,
    phi_from_line_bundle_metric,
    qisgauss_residuals,
)
from .transverse import (
    FiberPoint,
    check_qisgauss_trans,
    k_equals_2r_residual,
    q11_representative,
    q_representative,
    scalar_curvature_R,
    verify_bracket_identity,
)

SURFACE_KINDS = ("line_bundle_metric_h", "conformal_factor_e2phi", "rigid_defining_F")

# Cost caps.  invariants on the 8-term polynomial e^{2phi} of README takes
# 0.08 / 0.25 / 0.95 s at order 32 / 48 / 64 (2-CPU x86 host, Python 3.11).  Every
# quadrature integrand is evaluated on the 32 * panels radial nodes of the fine
# pass only, 1024 at the cap.  calibrate-c runs the pipeline once per probe at
# order 8: 0.09 / 0.10 s for 3 / 32 probes, whole process.
MAX_ORDER = 64
DEFAULT_ORDER = 16
MAX_RADIAL_PANELS = 32
MAX_PROBES = 32


# -- serialization helpers -------------------------------------------------------


def _rat(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError:  # more digits than a coefficient file may hold
        n = max(abs(q.numerator), q.denominator)
        digits = math.floor(n.bit_length() * math.log10(2)) + 1
        digits -= n < 10 ** (digits - 1)
        raise CartanQError(
            f"cannot print a coefficient of the report: {digit_limit_message(digits)}"
        ) from None


def _grat(c: GaussianRational) -> str:
    if c.is_real:
        return _rat(c.re)
    return f"{_rat(c.re)}+{_rat(c.im)}i"


def _series_json(s: TruncatedSeries, display_order: int):
    n = min(s.order, display_order)
    shown = s.truncated(n)
    return {
        "order": s.order,
        "display_order": n,
        "coeffs": [
            [k, l, _rat(c.re), _rat(c.im)] for (k, l), c in shown.coeffs.items()
        ],
    }


def _residual_entry(series: TruncatedSeries):
    if series.is_zero:
        return {"exact_zero": True, "value": "0", "order": series.order}
    first = next(iter(series.coeffs.items()))
    return {
        "exact_zero": False,
        "value": _grat(first[1]),
        "at": list(first[0]),
        "order": series.order,
    }


def _parse_rational(text: str) -> Fraction:
    try:
        return read_rational(text)
    except OverflowError as exc:  # more digits than the limit
        raise argparse.ArgumentTypeError(str(exc)) from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from None


def _parse_lambda(text: str) -> GaussianRational:
    parts = text.split(",")
    if len(parts) == 1:
        return GaussianRational(_parse_rational(parts[0]))
    if len(parts) == 2:
        return GaussianRational(_parse_rational(parts[0]), _parse_rational(parts[1]))
    raise argparse.ArgumentTypeError(f"bad lambda {text!r}; expected 're' or 're,im'")


def _int_in(lo=None, hi=None):
    """argparse type: an int within the bounds that are given."""

    def parse(text: str) -> int:
        try:
            value = read_int(text)
        except OverflowError as exc:  # more digits than the limit
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if lo is not None and value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """A rational read as the other rational flags are, rounded to a float."""
    try:
        value = float(_parse_rational(text))
    except OverflowError:  # too large for a float
        value = math.inf
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _parse_probes(text: str):
    probes = [p for p in text.split(",") if p.strip()]
    if len(probes) > MAX_PROBES:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_PROBES} probes, got {len(probes)}")
    return [_parse_rational(p) for p in probes]


# -- input handling ----------------------------------------------------------------


def _load_series(args) -> TruncatedSeries:
    if args.expr is not None:
        return parse_expression(args.expr, args.order)
    series = read_series(args.coeff_file)
    return series.truncated(min(args.order, series.order))


def _build_chart(args, need: int):
    """Returns (chart, rigid_surface_or_None, input echo).  ``need`` is the
    lowest chart order the subcommand can differentiate down to; the chart of
    a rigid_defining_F or line_bundle_metric_h input is two orders below its
    series."""
    if args.order < 4:
        raise CartanQError(f"--order must be at least 4, got {args.order}")
    series = _load_series(args)
    echo = {
        "kind": args.input_kind,
        "source": args.expr if args.expr is not None else args.coeff_file,
        # the effective order: a coefficient file may hold fewer terms than --order
        "order": series.order,
    }
    surface = None
    if args.input_kind == "line_bundle_metric_h":
        chart = phi_from_line_bundle_metric(series)
    elif args.input_kind == "conformal_factor_e2phi":
        chart = SurfaceChart(series)
    else:
        surface = RigidSurface(series)
        chart = surface.chart
    if chart.order < need:
        raise CartanQError(
            f"{args.command} needs a chart of order at least {need}, "
            f"and this input gives a chart of order {chart.order}"
        )
    return chart, surface, echo


# -- report assembly -----------------------------------------------------------------


def _report(args, echo, *, series=None, values=None, residuals=None,
            verdicts=None, calibration=None) -> int:
    """Writes the report and returns the exit code.  Every subcommand reports
    through here, so the key order is fixed once: ``series`` appears only for
    the subcommands that pass it."""
    report = {"input": echo}
    if series is not None:
        report["series"] = {
            name: _series_json(s, args.display_order) for name, s in series.items()
        }
    report.update(values=values or {}, residuals=residuals or {},
                  verdicts=verdicts or {}, calibration=calibration,
                  version=__version__)
    print(json.dumps(report, indent=2))
    return _exit_code(report["residuals"])


def _exit_code(residuals: dict) -> int:
    for entry in residuals.values():
        if entry.get("exact_zero") is False or entry.get("within_tolerance") is False:
            return 2
    return 0


def _bracket_entry(residual) -> dict:
    return {
        "exact_zero": residual.is_zero,
        "value": "0" if residual.is_zero else repr(residual),
    }


def _chart_residuals(chart: SurfaceChart) -> dict:
    """The exact curvature identities of one chart (the bracket identity does
    not depend on the chart and is added by the caller)."""
    g1, g2 = qisgauss_residuals(chart)
    t1, t2 = check_qisgauss_trans(chart)
    return {
        "qisgauss_identity_1": _residual_entry(g1),
        "qisgauss_identity_2": _residual_entry(g2),
        "qisgauss_trans_1": _residual_entry(t1),
        "qisgauss_trans_2": _residual_entry(t2),
        "divergence_form": _residual_entry(divergence_form_residual(chart)),
        "k_minus_2r": _residual_entry(k_equals_2r_residual(chart)),
    }


def _weight3_entries(chart: SurfaceChart) -> dict:
    entries = {}
    for check in weight3_scaling(chart, (4, Fraction(9, 4))):
        t = check.t
        entries[f"weight3_scaling_t_{t.numerator}_{t.denominator}"] = {
            "exact_zero": check.exact,
            "value": _grat(check.residual),
        }
    return entries


def _verdict_json(verdict) -> dict:
    first = verdict.first_nonzero
    return {
        "spherical": verdict.spherical,
        "verified_order": verdict.verified_order,
        "first_nonzero_r_coefficient": (
            None if first is None else {"at": list(first[0]), "value": _grat(first[1])}
        ),
    }


# -- subcommands --------------------------------------------------------------------


def _cmd_curvature(args) -> int:
    chart, _, echo = _build_chart(args, 2)
    K = gauss_curvature(chart)
    R = scalar_curvature_R(chart)
    return _report(
        args, echo,
        series={"K": K, "R": R},
        values={
            "K_at_center": _grat(K.constant_term),
            "R_at_center": _grat(R.constant_term),
        },
        residuals={"k_minus_2r": _residual_entry(k_equals_2r_residual(chart))},
    )


def _cmd_invariants(args) -> int:
    chart, surface, echo = _build_chart(args, 6)
    K = gauss_curvature(chart)
    R = scalar_curvature_R(chart)
    r = cartan_r(chart)
    s = cartan_s(chart)
    p = FiberPoint(args.lam)
    q_rep = q_representative(chart, p)
    q11_rep = q11_representative(chart, p)
    verdict = is_spherical(chart, r.order)

    residuals = _chart_residuals(chart)
    residuals["bracket_identity"] = _bracket_entry(verify_bracket_identity())
    residuals.update(_weight3_entries(chart))

    return _report(
        args, echo,
        series={"K": K, "R": R, "b": chart.b, "r": r, "s": s},
        values={
            "lambda": _grat(p.lam),
            "q_at_center": _grat(q_rep.constant_value()),
            "q11_at_center": _grat(q11_rep.constant_value()),
        },
        residuals=residuals,
        verdicts={
            **_verdict_json(verdict),
            "normal_form_coefficients_A0": (
                None
                if surface is None
                else {
                    f"{k},{l}": _grat(c) for (k, l), c in sorted(surface.coeffs_A0.items())
                }
            ),
        },
    )


def _cmd_sphericity(args) -> int:
    chart, _, echo = _build_chart(args, 4)
    r = cartan_r(chart)
    return _report(args, echo, series={"r": r},
                   verdicts=_verdict_json(is_spherical(chart, r.order)))


def _cmd_calibrate(args) -> int:
    c = calibrate_c(args.probes, family=args.family)
    return _report(
        args,
        {"probes": [_rat(p) for p in args.probes],
         "family": args.family, "order": CALIBRATION_ORDER},
        calibration={"c": _rat(c)},
    )


def _cmd_verify_identities(args) -> int:
    has_input = args.expr is not None or args.coeff_file is not None
    if (args.input_kind is not None) != has_input:
        raise CartanQError("--input-kind and one of --expr/--coeff-file go together")
    if args.order is not None and not has_input:
        raise CartanQError("--order needs an input: --input-kind and one of --expr/--coeff-file")
    control = verify_bracket_identity(perturb=True)
    residuals = {
        "bracket_identity": _bracket_entry(verify_bracket_identity()),
        "bracket_negative_control_nonzero": {
            "exact_zero": control.is_zero is False,
            "value": "nonzero as required" if not control.is_zero else "0 (BROKEN)",
        },
    }
    if has_input:
        if args.order is None:
            args.order = DEFAULT_ORDER
        chart, _, echo = _build_chart(args, 6)
        residuals.update(_chart_residuals(chart))
        residuals.update(_weight3_entries(chart))
    else:
        echo = {"kind": None, "source": None, "order": None}
    return _report(args, echo, residuals=residuals)


def _cmd_quadrature(args) -> int:
    from .quadrature import (
        QuadratureScheme,
        calabi_identity_check,
        integrate_surface,
        rigidity_demo,
    )
    from .radial import CompactMetric

    psi = parse_radial_polynomial(args.expr) if args.expr is not None else []
    metric = CompactMetric(psi)
    scheme = QuadratureScheme(radial_panels=args.radial_panels,
                              rel_tolerance=args.tolerance)

    area, area_err = integrate_surface(lambda u: 1.0, metric, scheme)
    checks = {
        "K": calabi_identity_check("K", metric, scheme),
        "u": calabi_identity_check([0, 1], metric, scheme),
    }
    demo = rigidity_demo(metric, scheme)
    residuals = {}
    for name, chk in checks.items():
        residuals[f"calabi_identity_{name}"] = {
            "lhs": chk.lhs,
            "rhs": chk.rhs,
            "relative_residual": chk.relative_residual,
            "within_tolerance": chk.passes(scheme.rel_tolerance),
        }
    residuals["rigidity_verdicts_consistent"] = {
        "within_tolerance": demo.consistent,
    }
    return _report(
        args,
        {
            "kind": "compact_profile_psi",
            "psi": [_rat(c) for c in metric.psi_coeffs],
            "radial_panels": scheme.radial_panels,
        },
        values={
            "chart_area": area,
            "chart_area_error_estimate": area_err,
            "i2": demo.i2,
            "i4": demo.i4,
        },
        residuals=residuals,
        verdicts={
            "closed_form_spherical": demo.closed_form_spherical,
            "symbolic_spherical": demo.symbolic_spherical,
        },
    )


# -- argument parsing -----------------------------------------------------------------
#
# Each subcommand is built from exactly the flags it reads, so that a flag it
# would ignore is a usage error instead of a silent no-op.


def _add_surface_input(sub, required=True):
    sub.add_argument("--input-kind", choices=SURFACE_KINDS, required=required)
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--expr", help="expression in z, zb")
    group.add_argument("--coeff-file", help="path to a coefficient file")
    # with an optional input --order defaults to None, so that it can be
    # refused without one
    sub.add_argument("--order", type=_int_in(hi=MAX_ORDER),
                     default=DEFAULT_ORDER if required else None,
                     help=f"truncation order, at most {MAX_ORDER} "
                     f"(default {DEFAULT_ORDER})")


def _add_series_command(subs, name, help, func):
    """A subcommand that reads a surface input and prints series."""
    sub = subs.add_parser(name, help=help)
    _add_surface_input(sub)
    sub.add_argument("--display-order", type=_int_in(lo=0), default=6,
                     help="echo series coefficients up to this total degree")
    sub.set_defaults(func=func)
    return sub


# An unrecognized argument longer than this is shown by its length, as a
# number beyond the digit limit is, so that the usage error stays one short line.
_SHOWN_CHARS = 100


def _brief(arg: str) -> str:
    if len(arg) <= _SHOWN_CHARS:
        return arg
    flag, eq, value = arg.partition("=")
    if eq and flag.startswith("-") and len(flag) <= _SHOWN_CHARS:
        return f"{flag}=<{len(value)} characters>"
    return f"<{len(arg)} characters>"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; exit code 2 is reserved for identity violations.
    A flag is matched only when spelled in full: a prefix that ran as the flag
    it starts would change meaning when a flag is added or removed.  The
    subparsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(map(_brief, extras)))
        return args

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cartanq",
        description="Exact CR invariants Q and Q;11 for transverse-symmetry "
        "3-dimensional CR manifolds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_series_command(subs, "curvature", "Gauss and pseudohermitian curvature",
                        _cmd_curvature)

    sub = _add_series_command(subs, "invariants", "full invariant report",
                              _cmd_invariants)
    sub.add_argument("--lambda", dest="lam", type=_parse_lambda,
                     default=GaussianRational(1),
                     help="fiber coordinate lambda as 're' or 're,im'")

    _add_series_command(subs, "sphericity", "sphericity verdict from r",
                        _cmd_sphericity)

    sub = subs.add_parser("calibrate-c", help="calibrate the weight-3 constant")
    sub.add_argument("--probes", type=_parse_probes,
                     default=[Fraction(1, 10), Fraction(1, 16), Fraction(1, 25)])
    sub.add_argument("--family", choices=tuple(FAMILIES), default="a44")
    sub.set_defaults(func=_cmd_calibrate)

    sub = subs.add_parser("verify-identities",
                          help="bracket identity and per-input identity residuals")
    _add_surface_input(sub, required=False)
    sub.set_defaults(func=_cmd_verify_identities)

    sub = subs.add_parser("quadrature-check",
                          help="compact-manifold quadrature verification")
    sub.add_argument("--expr",
                     help=f"profile psi, a polynomial in u of degree at most "
                     f"{MAX_PROFILE_DEGREE} (omitted: psi = 0, the Fubini-Study metric)")
    sub.add_argument("--radial-panels", type=_int_in(1, MAX_RADIAL_PANELS), default=4,
                     help=f"Gauss-Legendre panels in u, 1 to {MAX_RADIAL_PANELS} "
                     "(default 4)")
    sub.add_argument("--tolerance", type=_positive_float, default=1e-6,
                     help="relative tolerance of the Calabi identities (finite, > 0)")
    sub.set_defaults(func=_cmd_quadrature)

    return parser


# Flags whose value may start with a minus sign: an expression such as
# -90*u or a rational such as -1/2, which argparse would take for an option.
_SIGNED_VALUE_FLAGS = frozenset({"--expr", "--probes", "--lambda"})


def _join_signed_values(argv):
    """Writes ``--expr -90*u`` as ``--expr=-90*u``, for each flag of
    _SIGNED_VALUE_FLAGS followed by an element that starts with a single
    ``-``.  A following ``--option`` is left alone and stays a usage error."""
    out = []
    for arg in argv:
        if (out and out[-1] in _SIGNED_VALUE_FLAGS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (CartanQError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
