"""Command-line surface: parse an input surface, run the pipelines, and emit
deterministic machine-readable reports.

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
from .errors import CartanQError
from .expr import parse_expression, parse_radial_polynomial
from .gaussrat import GaussianRational
from .invariants import (
    RigidSurface,
    calibrate_c,
    is_spherical,
    weight3_scaling,
)
from .series import TruncatedSeries
from .seriesfile import read_series
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
    PseudohermitianChart,
    check_qisgauss_trans,
    k_equals_2r_residual,
    q11_representative,
    q_representative,
    scalar_curvature_R,
    verify_bracket_identity,
)

INPUT_KINDS = (
    "line_bundle_metric_h",
    "conformal_factor_e2phi",
    "rigid_defining_F",
    "compact_profile_psi",
)


# -- serialization helpers -------------------------------------------------------


def _rat(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
            [k, l, _rat(c.re), _rat(c.im)] for (k, l), c in shown.graded_items()
        ],
    }


def _residual_entry(series: TruncatedSeries):
    if series.is_zero:
        return {"exact_zero": True, "value": "0", "order": series.order}
    first = min(series.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return {
        "exact_zero": False,
        "value": _grat(first[1]),
        "at": list(first[0]),
        "order": series.order,
    }


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from None


def _parse_lambda(text: str) -> GaussianRational:
    parts = text.split(",")
    if len(parts) == 1:
        return GaussianRational(_parse_rational(parts[0]))
    if len(parts) == 2:
        return GaussianRational(_parse_rational(parts[0]), _parse_rational(parts[1]))
    raise argparse.ArgumentTypeError(f"bad lambda {text!r}; expected 're' or 're,im'")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _parse_probes(text: str):
    return [_parse_rational(p) for p in text.split(",") if p.strip()]


# -- input handling ----------------------------------------------------------------


def _load_series(args) -> TruncatedSeries:
    if args.expr is not None:
        return parse_expression(args.expr, args.order)
    series = read_series(args.coeff_file)
    return series.truncated(min(args.order, series.order))


def _build_chart(args):
    """Returns (chart, rigid_surface_or_None, input echo)."""
    if args.input_kind is None:
        raise CartanQError("--input-kind is required when a surface input is given")
    if args.order < 4:
        raise CartanQError(f"--order must be at least 4, got {args.order}")
    series = _load_series(args)
    echo = {
        "kind": args.input_kind,
        "source": args.expr if args.expr is not None else args.coeff_file,
        # the effective order: a coefficient file may hold fewer terms than --order
        "order": series.order,
    }
    if args.input_kind == "line_bundle_metric_h":
        return phi_from_line_bundle_metric(series), None, echo
    if args.input_kind == "conformal_factor_e2phi":
        return SurfaceChart(series), None, echo
    if args.input_kind == "rigid_defining_F":
        surface = RigidSurface(series)
        return surface.chart, surface, echo
    raise CartanQError(
        f"input kind {args.input_kind!r} is not a surface input for this subcommand"
    )


# -- report assembly -----------------------------------------------------------------


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2)
    else:
        text = _render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_text(report: dict, prefix: str = "") -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.append(_render_text(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return "\n".join(lines)


def _exit_code(residuals: dict) -> int:
    for entry in residuals.values():
        if isinstance(entry, dict) and entry.get("exact_zero") is False:
            return 2
        if isinstance(entry, dict) and entry.get("within_tolerance") is False:
            return 2
    return 0


def _bracket_entry(bracket) -> dict:
    return {
        "exact_zero": bracket.is_zero,
        "value": "0" if bracket.is_zero else repr(bracket.residual),
    }


def _chart_residuals(chart: PseudohermitianChart) -> dict:
    """The exact curvature identities of one chart (the bracket identity does
    not depend on the chart and is added by the caller)."""
    base = chart.base
    g1, g2 = qisgauss_residuals(base)
    t1, t2 = check_qisgauss_trans(chart)
    return {
        "qisgauss_identity_1": _residual_entry(g1),
        "qisgauss_identity_2": _residual_entry(g2),
        "qisgauss_trans_1": _residual_entry(t1),
        "qisgauss_trans_2": _residual_entry(t2),
        "divergence_form": _residual_entry(divergence_form_residual(base)),
        "k_minus_2r": _residual_entry(k_equals_2r_residual(chart)),
    }


def _weight3_entries(chart: PseudohermitianChart) -> dict:
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
    chart, _, echo = _build_chart(args)
    pchart = PseudohermitianChart(chart)
    K = gauss_curvature(chart)
    R = scalar_curvature_R(pchart)
    report = {
        "input": echo,
        "series": {
            "K": _series_json(K, args.display_order),
            "R": _series_json(R, args.display_order),
        },
        "values": {
            "K_at_center": _grat(K.constant_term),
            "R_at_center": _grat(R.constant_term),
        },
        "residuals": {"k_minus_2r": _residual_entry(k_equals_2r_residual(pchart))},
        "verdicts": {},
        "calibration": None,
        "version": __version__,
    }
    _emit(report, args)
    return _exit_code(report["residuals"])


def _cmd_invariants(args) -> int:
    chart, surface, echo = _build_chart(args)
    pchart = PseudohermitianChart(chart)
    K = gauss_curvature(chart)
    R = scalar_curvature_R(pchart)
    r = cartan_r(chart)
    s = cartan_s(chart)
    p = FiberPoint(args.lam)
    q_rep = q_representative(pchart, p)
    q11_rep = q11_representative(pchart, p)
    verdict = is_spherical(chart, r.order)

    residuals = _chart_residuals(pchart)
    residuals["bracket_identity"] = _bracket_entry(verify_bracket_identity())
    residuals.update(_weight3_entries(pchart))

    report = {
        "input": echo,
        "series": {
            "K": _series_json(K, args.display_order),
            "R": _series_json(R, args.display_order),
            "b": _series_json(chart.b, args.display_order),
            "r": _series_json(r, args.display_order),
            "s": _series_json(s, args.display_order),
        },
        "values": {
            "lambda": _grat(p.lam),
            "q_at_center": _grat(q_rep.constant_value()),
            "q11_at_center": _grat(q11_rep.constant_value()),
        },
        "residuals": residuals,
        "verdicts": {
            **_verdict_json(verdict),
            "normal_form_coefficients_A0": (
                None
                if surface is None
                else {
                    f"{k},{l}": _grat(c) for (k, l), c in sorted(surface.coeffs_A0.items())
                }
            ),
        },
        "calibration": None,
        "version": __version__,
    }
    _emit(report, args)
    return _exit_code(residuals)


def _cmd_sphericity(args) -> int:
    chart, _, echo = _build_chart(args)
    r = cartan_r(chart)
    order = r.order if args.verify_order is None else min(args.verify_order, r.order)
    verdict = is_spherical(chart, order)
    report = {
        "input": echo,
        "series": {"r": _series_json(r, args.display_order)},
        "values": {},
        "residuals": {},
        "verdicts": _verdict_json(verdict),
        "calibration": None,
        "version": __version__,
    }
    _emit(report, args)
    return 0


def _cmd_calibrate(args) -> int:
    result = calibrate_c(args.probes, family=args.family, order=args.order)
    report = {
        "input": {"probes": [_rat(p) for p in result.epsilon_probes],
                  "family": result.probe_family, "order": args.order},
        "values": {},
        "residuals": {},
        "verdicts": {},
        "calibration": {
            "c": _rat(result.c_value),
            "polynomial_in_eps": [_rat(c) for c in result.interpolated_polynomial],
            "constant_term_zero": True,
        },
        "version": __version__,
    }
    _emit(report, args)
    return 0


def _cmd_verify_identities(args) -> int:
    control = verify_bracket_identity(perturb=True)
    residuals = {
        "bracket_identity": _bracket_entry(verify_bracket_identity()),
        "bracket_negative_control_nonzero": {
            "exact_zero": control.is_zero is False,
            "value": "nonzero as required" if not control.is_zero else "0 (BROKEN)",
        },
    }
    if args.expr is not None or args.coeff_file is not None:
        chart, _, echo = _build_chart(args)
        pchart = PseudohermitianChart(chart)
        residuals.update(_chart_residuals(pchart))
        residuals.update(_weight3_entries(pchart))
    else:
        echo = {"kind": None, "source": None, "order": args.order}
    report = {
        "input": echo,
        "values": {},
        "residuals": residuals,
        "verdicts": {},
        "calibration": None,
        "version": __version__,
    }
    _emit(report, args)
    return _exit_code(residuals)


def _cmd_quadrature(args) -> int:
    import numpy as np

    from .quadrature import (
        CompactMetric,
        QuadratureScheme,
        calabi_identity_check,
        integrate_surface,
        rigidity_demo,
    )

    if args.input_kind not in (None, "compact_profile_psi"):
        raise CartanQError("quadrature-check takes a compact_profile_psi input")
    psi = parse_radial_polynomial(args.expr) if args.expr else []
    metric = CompactMetric(psi)
    try:
        scheme = QuadratureScheme(
            radial_panels=args.radial_panels,
            angular_nodes=args.angular_nodes,
            rel_tolerance=args.tolerance,
        )
    except ValueError as exc:
        raise CartanQError(str(exc)) from exc
    if not metric.e2phi_positive_on_grid(scheme):
        raise CartanQError("e^{2phi} is not positive on the quadrature grid")

    area, area_err = integrate_surface(
        lambda z: np.ones(z.shape), metric, scheme
    )
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
    report = {
        "input": {
            "kind": "compact_profile_psi",
            "psi": [_rat(c) for c in metric.psi_coeffs],
            "radial_panels": scheme.radial_panels,
            "angular_nodes": scheme.angular_nodes,
        },
        "values": {
            "chart_area": area,
            "chart_area_error_estimate": area_err,
            "i2": demo.i2,
            "i4": demo.i4,
        },
        "residuals": residuals,
        "verdicts": {
            "numeric_spherical": demo.numeric_spherical,
            "symbolic_spherical": demo.symbolic_spherical,
        },
        "calibration": None,
        "version": __version__,
    }
    _emit(report, args)
    return _exit_code(residuals)


# -- argument parsing -----------------------------------------------------------------


def _add_input_flags(sub, require_input=True):
    sub.add_argument("--input-kind", choices=INPUT_KINDS,
                     required=require_input, default=None)
    group = sub.add_mutually_exclusive_group(required=require_input)
    group.add_argument("--expr", help="expression in z, zb (or u for profiles)")
    group.add_argument("--coeff-file", help="path to a coefficient file")
    sub.add_argument("--order", type=int, default=16,
                     help="truncation order (default 16)")


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--out", default=None, help="write the report to a file")
    sub.add_argument("--display-order", type=_non_negative_int, default=6,
                     help="echo series coefficients up to this total degree")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; exit code 2 is reserved for identity violations."""

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

    sub = subs.add_parser("curvature", help="Gauss and pseudohermitian curvature")
    _add_input_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_curvature)

    sub = subs.add_parser("invariants", help="full invariant report")
    _add_input_flags(sub)
    _add_output_flags(sub)
    sub.add_argument("--lambda", dest="lam", type=_parse_lambda,
                     default=GaussianRational(1),
                     help="fiber coordinate lambda as 're' or 're,im'")
    sub.set_defaults(func=_cmd_invariants)

    sub = subs.add_parser("sphericity", help="sphericity verdict from r")
    _add_input_flags(sub)
    _add_output_flags(sub)
    sub.add_argument("--verify-order", type=_non_negative_int, default=None)
    sub.set_defaults(func=_cmd_sphericity)

    sub = subs.add_parser("calibrate-c", help="calibrate the weight-3 constant")
    sub.add_argument("--probes", type=_parse_probes,
                     default=[Fraction(1, 10), Fraction(1, 16), Fraction(1, 25)])
    sub.add_argument("--family", choices=("a44", "a24"), default="a44")
    sub.add_argument("--order", type=int, default=12)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_calibrate)

    sub = subs.add_parser("verify-identities",
                          help="bracket identity and per-input identity residuals")
    _add_input_flags(sub, require_input=False)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_verify_identities)

    sub = subs.add_parser("quadrature-check",
                          help="compact-manifold quadrature verification")
    _add_input_flags(sub, require_input=False)
    _add_output_flags(sub)
    sub.add_argument("--radial-panels", type=int, default=4)
    sub.add_argument("--angular-nodes", type=int, default=128)
    sub.add_argument("--tolerance", type=_positive_float, default=1e-6,
                     help="relative tolerance of the Calabi identities (finite, > 0)")
    sub.set_defaults(func=_cmd_quadrature)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CartanQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
