"""CLI surface: subcommands, exit-code contract, JSON schema stability."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanq import cli, seriesfile
from cartanq.errors import digit_limit_message
from cartanq.gaussrat import GaussianRational
from cartanq.series import TruncatedSeries
from cartanq.seriesfile import dumps

GOLDEN = Path(__file__).parent / "golden"

F44 = "z*zb + 1/10*z^4*zb^4"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def outcome(capsys, argv):
    """Returns (exit code, stdout, stderr), also when argparse rejects the argv."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_rejected(capsys, argv):
    """Returns (exit code, stdout, `error:` lines of stderr)."""
    code, out, err = outcome(capsys, argv)
    return code, out, [l for l in err.splitlines() if "error:" in l]


def test_invariants_f44(capsys):
    code, out = run(
        capsys, "invariants", "--input-kind", "rigid_defining_F",
        "--expr", F44, "--order", "12",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "input", "series", "values", "residuals", "verdicts", "calibration", "version",
    }
    assert report["values"]["q11_at_center"] == "48/5"
    assert all(
        entry.get("exact_zero", True) for entry in report["residuals"].values()
    )
    assert report["verdicts"]["normal_form_coefficients_A0"] == {"4,4": "1/10"}


def test_invariants_json_golden(capsys):
    code, out = run(
        capsys, "invariants", "--input-kind", "rigid_defining_F",
        "--expr", F44, "--order", "12", "--lambda", "2",
    )
    assert code == 0
    got = json.loads(out)
    expected = json.loads((GOLDEN / "invariants_f44.json").read_text())
    got["version"] = expected["version"] = "X"
    assert got == expected


def test_determinism(capsys):
    args = ("curvature", "--input-kind", "conformal_factor_e2phi",
            "--expr", "(1+z*zb)^-2", "--order", "10")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_sphericity_round_metric(capsys):
    code, out = run(
        capsys, "sphericity", "--input-kind", "conformal_factor_e2phi",
        "--expr", "(1+z*zb)^-2", "--order", "14",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["spherical"] is True
    assert report["verdicts"]["verified_order"] >= 10


def test_calibrate_c(capsys):
    default = ["1/10", "1/16", "1/25"]
    for argv, probes, family, c in [
        ((), default, "a44", "96"),
        (("--probes", "1/10,1/16,1/25"), default, "a44", "96"),
        (("--probes", "1/10,1/16,1/25,2,-3"), [*default, "2", "-3"], "a44", "96"),
        (("--family", "a24"), default, "a24", "0"),
    ]:
        code, out = run(capsys, "calibrate-c", *argv)
        assert code == 0
        report = json.loads(out)
        assert report["input"] == {"probes": probes, "family": family, "order": 8}, argv
        assert report["calibration"] == {"c": c}, argv


def test_verify_identities_without_input(capsys):
    code, out = run(capsys, "verify-identities")
    assert code == 0
    report = json.loads(out)
    # nothing ran at a truncation order
    assert report["input"] == {"kind": None, "source": None, "order": None}
    residuals = report["residuals"]
    assert residuals["bracket_identity"]["exact_zero"] is True
    assert residuals["bracket_negative_control_nonzero"]["exact_zero"] is True


def test_verify_identities_with_input(capsys):
    code, out = run(
        capsys, "verify-identities", "--input-kind", "rigid_defining_F",
        "--expr", F44, "--order", "12",
    )
    assert code == 0
    assert "qisgauss_identity_1" in json.loads(out)["residuals"]


def test_verify_identities_input_defaults_to_order_16(capsys):
    code, out = run(capsys, "verify-identities", "--input-kind", "conformal_factor_e2phi",
                    "--expr", "1+z*zb")
    assert code == 0
    assert json.loads(out)["input"] == {
        "kind": "conformal_factor_e2phi", "source": "1+z*zb", "order": 16}


def test_quadrature_check(capsys):
    code, out = run(capsys, "quadrature-check", "--expr", "u*(1-u)/10")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["closed_form_spherical"] is False
    assert report["residuals"]["calabi_identity_K"]["within_tolerance"] is True


@pytest.mark.parametrize(
    "expr, golden",
    [("u*(1-u)/10", "quadrature_bump.json"),
     ("u^5/3-2/7*u^2+u/9", "quadrature_quintic.json"),
     ("u/300", "quadrature_u_over_300.json")],
    ids=["bump", "quintic", "u_over_300"],
)
def test_quadrature_report_matches_its_golden_bytes(capsys, expr, golden):
    """Every printed float, to its last digit, as the report was recorded."""
    code, out = run(capsys, "quadrature-check", "--expr", expr)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("n", range(1, 17))
def test_quadrature_check_sees_high_degree_profiles(capsys, n):
    """psi = u^n / 3 first shows in r at degree 2n - 4, beyond the degree 8 that
    an order-12 chart verifies once n > 6; the symbolic verdict must still say
    non-spherical, as the closed form does."""
    code, out = run(capsys, "quadrature-check", "--expr", f"u^{n}/3")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"closed_form_spherical": False, "symbolic_spherical": False}
    assert report["residuals"]["rigidity_verdicts_consistent"]["within_tolerance"] is True


@pytest.mark.parametrize("n", [300, 10**3, 10**4, 10**5])
def test_quadrature_check_near_spherical_profiles(capsys, n):
    """psi = u/n is not spherical however small i2 = O(n^-4) is, and its
    Calabi identity on K holds to the relative tolerance."""
    code, out = run(capsys, "quadrature-check", "--expr", f"u/{n}")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"closed_form_spherical": False, "symbolic_spherical": False}
    assert report["residuals"]["rigidity_verdicts_consistent"]["within_tolerance"] is True


def test_coeff_file_input(tmp_path, capsys):
    from cartanq.expr import parse_expression

    path = tmp_path / "metric.coeffs"
    path.write_text(dumps(parse_expression("(1+z*zb)^-2", 12)))
    code, out = run(
        capsys, "curvature", "--input-kind", "conformal_factor_e2phi",
        "--coeff-file", str(path), "--order", "12",
    )
    assert code == 0
    assert json.loads(out)["values"]["K_at_center"] == "4"


def test_coeff_file_echoes_effective_order(tmp_path, capsys):
    from cartanq.expr import parse_expression

    path = tmp_path / "metric.coeffs"
    path.write_text(dumps(parse_expression("(1+z*zb)^-2", 10)))
    code, out = run(
        capsys, "curvature", "--input-kind", "conformal_factor_e2phi",
        "--coeff-file", str(path), "--order", "16",
    )
    assert code == 0
    report = json.loads(out)
    assert report["input"]["order"] == 10
    assert report["series"]["K"]["order"] == 8


def test_coeff_file_blank_lines_are_skipped(tmp_path, capsys):
    """Blank and whitespace-only lines between coefficient lines change
    nothing in the report but its source."""
    from cartanq.expr import parse_expression

    text = dumps(parse_expression(F44, 12))
    header, *lines = text.splitlines()
    plain, spaced = tmp_path / "plain.coeffs", tmp_path / "spaced.coeffs"
    plain.write_text(text)
    spaced.write_text("\n".join([header, ""] + [f"{line}\n  " for line in lines]) + "\n")
    reports = []
    for path in (plain, spaced):
        code, out = run(capsys, "invariants", "--input-kind", "rigid_defining_F",
                        "--coeff-file", str(path), "--order", "12")
        assert code == 0
        report = json.loads(out)
        assert report["input"].pop("source") == str(path)
        reports.append(report)
    assert reports[0] == reports[1]


# -- error and exit-code contract ---------------------------------------------------


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate-c", "--family", "bogus"])
    assert exc.value.code == 1


def test_domain_error_exits_1(capsys):
    code, out, errors = run_rejected(capsys, [
        "curvature", "--input-kind", "line_bundle_metric_h",
        "--expr", "1+z*zb", "--order", "10",
    ])
    assert (code, out) == (1, "")
    assert errors == ["error: -D Dbar log h = -1 at the center is not positive"]


def test_syntax_error_exits_1(capsys):
    code, _ = run(
        capsys, "curvature", "--input-kind", "conformal_factor_e2phi",
        "--expr", "1 + @", "--order", "10",
    )
    assert code == 1


def test_order_too_small_exits_1(capsys):
    code, _ = run(
        capsys, "curvature", "--input-kind", "conformal_factor_e2phi",
        "--expr", "1", "--order", "3",
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("curvature", "--input-kind", "conformal_factor_e2phi",
         "--expr", "(1+z*zb)^-2", "--order", "12", "--display-order", "-3"),
        ("calibrate-c", "--order", "6"),
        ("quadrature-check", "--radial-panels", "0"),
        # --verify-order is no longer a flag: an unrecognized argument
        ("sphericity", "--input-kind", "conformal_factor_e2phi",
         "--expr", "1+z*zb", "--order", "8", "--verify-order", "-3"),
        # a bad tolerance must not turn a 3e-14 Calabi residual into exit 2
        *[("quadrature-check", "--expr", "u/10", "--tolerance", t)
          for t in ("-1", "0", "nan", "inf", "1e400")],
        # cost caps: --order <= 64, --radial-panels <= 32
        ("curvature", "--input-kind", "conformal_factor_e2phi",
         "--expr", "1+z*zb", "--order", "65"),
        ("calibrate-c", "--order", "65"),
        ("verify-identities", "--order", "65"),
        ("quadrature-check", "--radial-panels", "33"),
    ],
    ids=["negative_display_order", "calibrate_order_6", "zero_radial_panels",
         "negative_verify_order", "tolerance_negative", "tolerance_zero",
         "tolerance_nan", "tolerance_inf", "tolerance_overflow",
         "order_above_cap", "calibrate_order_above_cap", "verify_order_above_cap",
         "radial_panels_above_cap"],
)
def test_bad_numeric_flag_exits_1(capsys, argv):
    code, _, errors = run_rejected(capsys, argv)
    assert code == 1
    assert len(errors) == 1


_E2PHI = ("sphericity", "--input-kind", "conformal_factor_e2phi")


@pytest.mark.parametrize("argv, error", [
    ((*_E2PHI, "--expr", "(" * 200 + "1+z*zb" + ")" * 200, "--order", "8"),
     "error: parentheses nested deeper than 100 (at position 100)"),
    (("quadrature-check", "--expr", "(" * 200 + "u" + ")" * 200),
     "error: parentheses nested deeper than 100 (at position 100)"),
    ((*_E2PHI, "--expr", "1+" + "-" * 1500, "--order", "8"),
     "error: expected a number, variable, function, or '(' (at position 1502)"),
    ((*_E2PHI, "--coeff-file", "{nonutf8}", "--order", "8"),
     "error: line 2: not UTF-8 text: byte 0xff"),
    ((*_E2PHI, "--expr", "1+z*zb", "--order", "\u0661\u0662"),
     "cartanq sphericity: error: argument --order: invalid int value: '\u0661\u0662'"),
    ((*_E2PHI, "--expr", "1+z*zb", "--order", "1_2"),
     "cartanq sphericity: error: argument --order: invalid int value: '1_2'"),
    ((*_E2PHI, "--expr", "\u0661+z*zb", "--order", "8"),
     "error: unexpected character '\u0661' (at position 0)"),
    (("calibrate-c", "--probes", "1_0/3,1/16,1/25"),
     "cartanq calibrate-c: error: argument --probes: bad rational '1_0/3'"),
    (("quadrature-check", "--tolerance", "1_0e-7"),
     "cartanq quadrature-check: error: argument --tolerance: bad rational '1_0e-7'"),
    (("quadrature-check", "--tolerance", "\u0661e-6"),
     "cartanq quadrature-check: error: argument --tolerance: bad rational '\u0661e-6'"),
], ids=["nesting", "quadrature_nesting", "sign_run", "non_utf8_file", "unicode_order",
        "underscore_order", "unicode_literal", "underscore_probe", "underscore_tolerance",
        "unicode_tolerance"])
def test_input_that_ran_or_raised_before_exits_1(capsys, tmp_path, argv, error):
    """Each of these either ran with a changed meaning or ended in a traceback."""
    (tmp_path / "nonutf8.coeffs").write_bytes(b"order 4\n\xff\xfe 1 1 0\n")
    argv = [a.replace("{nonutf8}", str(tmp_path / "nonutf8.coeffs")) for a in argv]
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, errors) == (1, "", [error])


_TOLERANCE = "cartanq quadrature-check: error: argument --tolerance:"


@pytest.mark.parametrize("argv, error", [
    (("invariants", "--input-kind", "conformal_factor_e2phi", "--expr", "1+z*zb",
      "--order", "8", "--lambda", "1,2,3"),
     "cartanq invariants: error: argument --lambda: bad lambda '1,2,3'; "
     "expected 're' or 're,im'"),
    (("quadrature-check", "--tolerance", "x"), f"{_TOLERANCE} bad rational 'x'"),
    (("quadrature-check", "--tolerance", "nan"), f"{_TOLERANCE} bad rational 'nan'"),
    (("quadrature-check", "--tolerance", "0x1p-20"), f"{_TOLERANCE} bad rational '0x1p-20'"),
    (("quadrature-check", "--tolerance", "1e400"),
     f"{_TOLERANCE} must be finite and positive, got 1e400"),
    (("quadrature-check", "--tolerance", "1e-400"),
     f"{_TOLERANCE} must be finite and positive, got 1e-400"),
    (("curvature", "--input-kind", "line_bundle_metric_h", "--expr", "1+z+z*zb"),
     "error: h must be a real series"),
    (("curvature", "--input-kind", "rigid_defining_F", "--expr", "z*zb + z^4"),
     "error: F must be a real series"),
], ids=["lambda_three_parts", "tolerance_word", "tolerance_nan", "tolerance_hex",
        "tolerance_overflow", "tolerance_underflow", "h_not_real", "F_not_real"])
def test_rejected_input_names_its_fault(capsys, argv, error):
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, errors) == (1, "", [error])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
def test_tolerance_reads_each_float_spelling_as_float_does(x):
    """--tolerance reads its text as a rational, then rounds it once, so every
    decimal spelling gives the float that float() gives, and a spelling that
    rounds to infinity is refused as infinity is."""
    for text in (repr(x), f"{x:e}", f"{x:.30e}", f"{x:.3g}"):
        if float(text) < math.inf:
            assert cli._positive_float(text) == float(text), text
        else:
            with pytest.raises(argparse.ArgumentTypeError, match="finite and positive"):
                cli._positive_float(text)


@pytest.mark.parametrize("expr, error", [
    ("z*zb + z^2*zb^2", "error: trace condition violated: A^0_22 != 0"),
    ("z*zb + z^2*zb + z*zb^2", "error: F has a forbidden low-degree term z^1 zbar^2"),
], ids=["trace_condition", "low_degree"])
def test_refused_rigid_term_is_named_like_the_others(capsys, expr, error):
    """A refused term of F is named as the harmonic and z^k zbar refusals
    name it, z^k zbar^l, or A^0_kl for a trace coefficient."""
    argv = ("curvature", "--input-kind", "rigid_defining_F", "--expr", expr, "--order", "10")
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, errors) == (1, "", [error])


# A valid argv of each subcommand, so that only the flag added to it can fail.
VALID = {
    "curvature": ("curvature", "--input-kind", "conformal_factor_e2phi",
                  "--expr", "1+z*zb", "--order", "8"),
    "invariants": ("invariants", "--input-kind", "conformal_factor_e2phi",
                   "--expr", "1+z*zb", "--order", "8"),
    "sphericity": ("sphericity", "--input-kind", "conformal_factor_e2phi",
                   "--expr", "1+z*zb", "--order", "8"),
    "calibrate-c": ("calibrate-c",),
    "verify-identities": ("verify-identities",),
    "quadrature-check": ("quadrature-check",),
}
# The flags that only restated the one JSON report, with the subcommands that
# took them.
REMOVED_FLAGS = {
    "--format": ("json", tuple(VALID)),
    "--out": (os.devnull, tuple(VALID)),
    "--verify-order": ("12", ("sphericity",)),
}
REMOVED = [((*VALID[command], flag, value),
            f"{command}_{flag[2:]}".replace("-", "_"))
           for flag, (value, commands) in REMOVED_FLAGS.items() for command in commands]


@pytest.mark.parametrize(
    "argv",
    [
        ("quadrature-check", "--coeff-file", "no-such-file.coeffs"),
        ("quadrature-check", "--order", "99"),
        ("quadrature-check", "--display-order", "3"),
        ("quadrature-check", "--angular-nodes", "128"),
        ("quadrature-check", "--input-kind", "compact_profile_psi"),
        ("calibrate-c", "--display-order", "3"),
        ("verify-identities", "--display-order", "3"),
        ("verify-identities", "--input-kind", "rigid_defining_F"),
        ("curvature", "--input-kind", "compact_profile_psi", "--expr", "1+z*zb"),
        ("quadrature-check", "--expr", "exp(u)-1"),
        ("quadrature-check", "--expr", "1/(1+u)"),
        ("quadrature-check", "--expr", "1/(1+u^18)"),
        ("verify-identities", "--order", "12"),
        *[argv for argv, _ in REMOVED],
    ],
    ids=["quadrature_coeff_file", "quadrature_order", "quadrature_display_order",
         "quadrature_angular_nodes", "quadrature_input_kind",
         "calibrate_display_order", "verify_display_order", "verify_kind_without_input",
         "surface_profile_kind", "profile_exp", "profile_reciprocal",
         "profile_reciprocal_far_term", "verify_order_without_input",
         *[name for _, name in REMOVED]],
)
def test_flag_a_subcommand_would_ignore_exits_1(capsys, argv):
    """A flag the subcommand does not read, or an input it would silently
    truncate, is a usage error rather than a no-op."""
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, len(errors)) == (1, "", 1)


# A valid argv of each subcommand that spells every flag it takes but
# --coeff-file and --help; --coeff-file goes in the place of --expr.
FULL = {
    "curvature": ("--input-kind", "conformal_factor_e2phi", "--expr", "1+z*zb",
                  "--order", "8", "--display-order", "3"),
    "invariants": ("--input-kind", "conformal_factor_e2phi", "--expr", "1+z*zb",
                   "--order", "8", "--display-order", "3", "--lambda", "2"),
    "sphericity": ("--input-kind", "conformal_factor_e2phi", "--expr", "1+z*zb",
                   "--order", "8", "--display-order", "3"),
    "calibrate-c": ("--probes", "1/10,1/16,1/25", "--family", "a24"),
    "verify-identities": ("--input-kind", "conformal_factor_e2phi", "--expr", "1+z*zb",
                          "--order", "8"),
    "quadrature-check": ("--expr", "u/10", "--radial-panels", "2", "--tolerance", "1e-6"),
}


def _flag_cases():
    """(valid argv, index of a flag in it) for every -- flag of the parser and
    of each subcommand."""
    cases = [(["--help"], 0), (["--version"], 0)]
    for command, argv in FULL.items():
        argv = [command, *argv]
        cases += [(argv, i) for i, arg in enumerate(argv) if arg.startswith("--")]
        cases.append(([command, "--help"], 1))
        if "--input-kind" in argv:
            i = argv.index("--expr")
            cases.append(([*argv[:i], "--coeff-file", "{coeffs}", *argv[i + 2:]], i))
    return cases


FLAG_CASES = _flag_cases()


def _long_flags(parser):
    return {flag for a in parser._actions for flag in a.option_strings
            if flag.startswith("--")}


def test_flag_cases_cover_every_flag():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {(None, flag) for flag in _long_flags(parser)}
    flags |= {(name, flag) for name, sub in subparsers.choices.items()
              for flag in _long_flags(sub)}
    covered = {(argv[0] if i else None, argv[i]) for argv, i in FLAG_CASES}
    assert covered == flags


@pytest.mark.parametrize("argv, i", FLAG_CASES,
                         ids=[f"{argv[0] if i else 'cartanq'}_{argv[i][2:]}"
                              for argv, i in FLAG_CASES])
def test_flag_prefix_is_a_usage_error(capsys, tmp_path, argv, i):
    """A flag is matched only when spelled in full: each proper prefix of it,
    from --x on, exits 1 with one `error:` line, in place of the flag and
    joined to its value, while the full spelling runs."""
    from cartanq.expr import parse_expression

    path = tmp_path / "metric.coeffs"
    path.write_text(dumps(parse_expression("1+z*zb", 8)))
    argv = [a.replace("{coeffs}", str(path)) for a in argv]
    code, _, err = outcome(capsys, argv)
    assert (code, err) == (0, "")
    flag = argv[i]
    has_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
    for n in range(3, len(flag)):
        cases = [[*argv[:i], flag[:n], *argv[i + 1:]]]
        if has_value:
            cases.append([*argv[:i], f"{flag[:n]}={argv[i + 1]}", *argv[i + 2:]])
        for prefixed in cases:
            code, out, errors = run_rejected(capsys, prefixed)
            assert (code, out, len(errors)) == (1, "", 1), prefixed


_LH = "exp(-z*zb - z^2*zb^2/7)"


@pytest.mark.parametrize(
    "argv",
    [
        *[(command, "--input-kind", "conformal_factor_e2phi", "--expr", "1+z*zb",
           "--order", order)
          for command in ("invariants", "verify-identities") for order in ("4", "5")],
        *[(command, "--input-kind", kind, "--expr", expr, "--order", order)
          for command in ("invariants", "verify-identities")
          for kind, expr in (("rigid_defining_F", F44), ("line_bundle_metric_h", _LH))
          for order in ("6", "7")],
        *[("sphericity", "--input-kind", kind, "--expr", expr, "--order", order)
          for kind, expr in (("rigid_defining_F", F44), ("line_bundle_metric_h", _LH))
          for order in ("4", "5")],
    ],
)
def test_chart_order_below_what_the_subcommand_needs_exits_1(capsys, argv):
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, len(errors)) == (1, "", 1)
    need = "4" if argv[0] == "sphericity" else "6"
    assert f"{argv[0]} needs a chart of order at least {need}" in errors[0]


# The node where the values leave the float range depends on the order of the
# float operations in the generated evaluator code, so a change in code
# generation that moves it shows here.
FLOAT_RANGE_ERRORS = {
    "400*u": "error: e^{2phi} is not finite and positive at node z = (3.183694787762269+0j)",
    "-90*u": "error: non-finite integrand sample at node z = (4.6121388751044+0j)",
    "-400*u": "error: e^{2phi} is not finite and positive at node z = (3.7095288807711166+0j)",
    "-360": "error: non-finite integrand sample at node z = (0.02574646932566577+0j)",
}


def _run_cli(argv, **env):
    """``python -m cartanq.cli`` in a subprocess with this checkout's package."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "cartanq.cli", *argv],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("psi", FLOAT_RANGE_ERRORS)
def test_profile_outside_the_float_range_exits_1(psi):
    """e^{2phi} overflows (400 u) or underflows (-400 u), K_{;zbar zbar}
    does (-90 u), or K overflows everywhere, its value at the chart centre
    included (-360): one `error:` line naming the node and no numpy warning
    on stderr."""
    done = _run_cli(["quadrature-check", f"--expr={psi}"])
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [FLOAT_RANGE_ERRORS[psi]], done.stderr


@pytest.mark.parametrize(
    "expr, code",
    [(f"u/{10**1500}", 0), (f"u/{10**800}", 0), (f"u*{10**400}", 1)],
    ids=["u_over_10e1500", "u_over_10e800", "u_times_10e400"],
)
def test_huge_coefficients_end_without_a_traceback(expr, code):
    """A derived coefficient with more digits than CPython prints, or one
    below the float range, becomes its nearest float, 0.0; one above the
    float range ends in a single `error:` line."""
    done = _run_cli(["quadrature-check", f"--expr={expr}"])
    assert "Traceback" not in done.stderr
    assert done.returncode == code, done.stderr
    if code:
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: a coefficient of a closed form is outside the float range "
            "(magnitude above 1.7976931348623157e+308)"
        ]
    else:
        assert done.stderr == ""
        assert json.loads(done.stdout)["verdicts"] == {
            "closed_form_spherical": False, "symbolic_spherical": False,
        }


def test_quadrature_report_does_not_depend_on_hash_order():
    """The evaluator source is written term by term in the order of the
    coefficients, never in an order that string hashing could change."""
    argv = ["quadrature-check", "--expr", "u^5/3-2/7*u^2+u/9"]
    first, second = (_run_cli(argv, PYTHONHASHSEED=seed) for seed in ("0", "1"))
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("quadrature-check", "--expr", "-90*u"),
        ("quadrature-check", "--expr", "-u/10"),
        ("sphericity", "--input-kind", "conformal_factor_e2phi", "--expr", "-z*zb+2",
         "--order", "8"),
        ("invariants", "--input-kind", "rigid_defining_F", "--expr", F44,
         "--order", "12", "--lambda", "-1/2"),
        ("calibrate-c", "--probes", "-1/10,-1/16,-1/25"),
    ],
    ids=["quadrature_error", "quadrature", "sphericity", "invariants_lambda",
         "calibrate_probes"],
)
def test_value_with_a_leading_minus_may_follow_its_flag(capsys, argv):
    """``--expr -90*u`` behaves as ``--expr=-90*u``."""
    i = next(i for i, a in enumerate(argv) if a in ("--expr", "--probes", "--lambda")
             and argv[i + 1].startswith("-"))
    joined = (*argv[:i], f"{argv[i]}={argv[i + 1]}", *argv[i + 2:])
    spaced = outcome(capsys, argv)
    assert "usage:" not in spaced[2]
    assert spaced == outcome(capsys, joined)


def test_flag_followed_by_an_option_is_a_usage_error(capsys):
    code, out, err = outcome(capsys, ["quadrature-check", "--expr", "--order", "12"])
    assert (code, out) == (1, "")
    assert "argument --expr: expected one argument" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("quadrature-check", "--expr="),
        ("quadrature-check", "--expr=  "),
        ("sphericity", "--input-kind", "conformal_factor_e2phi", "--expr="),
    ],
    ids=["quadrature_empty", "quadrature_blank", "sphericity_empty"],
)
def test_empty_expression_exits_1(capsys, argv):
    """An empty --expr is an input the parser rejects; it never stands for psi = 0."""
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, len(errors)) == (1, "", 1)


# one digit more than CPython's default limit on the digits of an integer string
BIG = "1" + "0" * 4300
E2PHI = ("sphericity", "--input-kind", "conformal_factor_e2phi", "--order", "14")


@pytest.mark.parametrize(
    "argv, parts",
    [
        ((*E2PHI, "--expr", "1+z*zb*" + BIG), ("value has 4301 digits", "(at position 7)")),
        (("quadrature-check", "--expr", "u*" + BIG),
         ("value has 4301 digits", "(at position 2)")),
        ((*E2PHI, "--expr", "1+z*zb" + "*10^1000" * 5), ("cannot print a coefficient",)),
        (("calibrate-c", "--probes", "1e200000,1/16,1/25"),
         ("argument --probes: value has 200001 digits",)),
        (("invariants", "--input-kind", "rigid_defining_F", "--expr", F44,
          "--order", "8", "--lambda", "1e1000000"),
         ("argument --lambda: value has 1000001 digits",)),
        (("quadrature-check", "--tolerance", "1e-200000"),
         ("argument --tolerance: value has 200001 digits",)),
    ],
    ids=["sphericity_literal", "quadrature_literal", "sphericity_report",
         "calibrate_probes", "invariants_lambda", "quadrature_tolerance"],
)
def test_numbers_beyond_the_digit_limit_exit_1(capsys, monkeypatch, argv, parts):
    """Every number a report prints can be read back with --coeff-file, and
    every error about a number beyond the limit names the variable that
    raises it.  A rational is rejected before it is built."""
    monkeypatch.setattr(seriesfile, "Fraction", _refuse_fraction)
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, len(errors)) == (1, "", 1)
    assert all(part in errors[0] for part in (*parts, "PYTHONINTMAXSTRDIGITS"))


def _refuse_fraction(text):
    raise AssertionError(f"Fraction({text[:20]!r}...) built")


def test_coefficient_beyond_the_digit_limit_exits_1(capsys, monkeypatch, tmp_path):
    path = tmp_path / "big.coeffs"
    path.write_text("order 4\n1 1 1e200000 0\n")
    monkeypatch.setattr(seriesfile, "Fraction", _refuse_fraction)
    code, out, errors = run_rejected(
        capsys, (*E2PHI[:3], "--coeff-file", str(path), "--order", "4"))
    assert (code, out) == (1, "")
    assert errors == [
        f"error: line 2: value has 200001 digits, more than the limit of "
        f"{sys.get_int_max_str_digits()}; set PYTHONINTMAXSTRDIGITS to raise it"
    ]


@pytest.mark.parametrize(
    "argv, flag",
    [
        ((*E2PHI[:3], "--expr", "1+z*zb", "--order", BIG), "--order"),
        ((*E2PHI, "--expr", "1+z*zb", "--display-order", BIG), "--display-order"),
        (("verify-identities", "--order", BIG), "--order"),
        (("quadrature-check", "--radial-panels", BIG), "--radial-panels"),
    ],
    ids=["order", "display_order", "verify_identities_order", "radial_panels"],
)
def test_integer_flag_beyond_the_digit_limit_exits_1(capsys, argv, flag):
    """The error gives the digit count and names the flag, without the digits."""
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out) == (1, "")
    assert errors == [f"cartanq {argv[0]}: error: argument {flag}: "
                      f"{digit_limit_message(len(BIG))}"]


LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv, flag",
    [
        *[((*argv[:-1], LONG), argv[-2]) for argv, _ in REMOVED],
        (("calibrate-c", "--out=" + LONG), "--out"),
        ((*E2PHI, "--expr", "1+z*zb", "--verify-order", BIG), "--verify-order"),
        (("calibrate-c", "--order", LONG), "--order"),
    ],
    ids=[*[name for _, name in REMOVED], "calibrate_out_joined", "verify_order",
         "calibrate_order"],
)
def test_unrecognized_flag_with_a_long_value_exits_1(capsys, argv, flag):
    """The usage error names the unknown flag and gives the length of a long
    value, not its text."""
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, len(errors)) == (1, "", 1)
    assert len(errors[0]) <= 200 and flag in errors[0]
    assert f"<{len(argv[-1].split('=')[-1])} characters>" in errors[0]


def test_unrecognized_arguments_error_line(capsys):
    code, out, errors = run_rejected(
        capsys, (*VALID["sphericity"], "--verify-order", BIG, "--out", "report.json"))
    assert (code, out) == (1, "")
    assert errors == ["cartanq: error: unrecognized arguments: "
                      "--verify-order <4301 characters> --out report.json"]


def _probes(n):
    return ",".join(f"1/{d}" for d in range(2, 2 + n))


def test_probes_up_to_the_cap(capsys):
    assert cli.MAX_PROBES == 32
    code, out = run(capsys, "calibrate-c", "--probes", _probes(cli.MAX_PROBES))
    assert code == 0
    assert json.loads(out)["calibration"]["c"] == "96"


def test_probes_above_the_cap_exit_1(capsys):
    code, out, errors = run_rejected(capsys, ("calibrate-c", "--probes", _probes(33)))
    assert (code, out) == (1, "")
    assert errors == ["cartanq calibrate-c: error: argument --probes: at most 32 probes, got 33"]


@pytest.mark.parametrize(
    "argv, caret",
    [
        ((*E2PHI, "--expr", "1+z*zb*10^5000"), 9),
        ((*E2PHI, "--expr", "1+z*zb*2^100000000/2^100000000"), 8),
        (("quadrature-check", "--expr", "u*2^100000000/2^100000000"), 3),
    ],
    ids=["sphericity_10_5000", "sphericity_2_1e8", "quadrature_2_1e8"],
)
def test_power_beyond_the_digit_limit_exits_1_before_it_is_computed(
    capsys, monkeypatch, argv, caret
):
    def refuse(self, n):
        raise AssertionError(f"power {n} computed")

    monkeypatch.setattr(TruncatedSeries, "__pow__", refuse)
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, len(errors)) == (1, "", 1)
    assert errors[0].startswith("error: power too large")
    assert errors[0].endswith(f"(at position {caret})")


def test_omitted_profile_is_fubini_study(capsys):
    code, out = run(capsys, "quadrature-check")
    report = json.loads(out)
    assert code == 0 and report["input"]["psi"] == []
    assert report["verdicts"] == {"closed_form_spherical": True, "symbolic_spherical": True}


def test_unresolved_quadrature_exits_2_until_more_panels(capsys):
    code, _ = run(capsys, "quadrature-check", "--expr", "100*u")
    assert code == 2
    code, _ = run(capsys, "quadrature-check", "--expr", "100*u", "--radial-panels", "16")
    assert code == 0


def test_exit_code_2_on_identity_violation(capsys, monkeypatch):
    # identities cannot fail on genuine inputs; fabricate a nonzero residual
    def broken(chart):
        return {"qisgauss_identity_1": {"exact_zero": False, "value": "1"}}

    monkeypatch.setattr(cli, "_chart_residuals", broken)
    monkeypatch.setattr(cli, "_weight3_entries", lambda chart: {})
    code, _ = run(
        capsys, "invariants", "--input-kind", "rigid_defining_F",
        "--expr", F44, "--order", "12",
    )
    assert code == 2


def test_nonzero_exact_residual_entry(capsys, monkeypatch):
    argv = ("invariants", "--input-kind", "rigid_defining_F", "--expr", F44, "--order", "12")
    _, out = run(capsys, *argv)
    expected = json.loads(out)["residuals"]
    expected["k_minus_2r"] = {"exact_zero": False, "value": "-3/7+2i", "at": [2, 1],
                              "order": 8}
    residual = TruncatedSeries(8, {(2, 1): GaussianRational(Fraction(-3, 7), 2)})
    monkeypatch.setattr(cli, "k_equals_2r_residual", lambda chart: residual)
    code, out = run(capsys, *argv)
    assert code == 2
    residuals = json.loads(out)["residuals"]
    assert residuals == expected
    assert list(residuals["k_minus_2r"]) == ["exact_zero", "value", "at", "order"]


README_E2PHI = "2 + z*zb + (z^2*zb + z*zb^2)/3 + (z^3 + zb^3)/5 + z^2*zb^2/7 - z^3*zb^3/11"


@pytest.mark.parametrize(
    "expr, key, value",
    [
        # Q = r(0) / (lambda lambdabar^3) = r(0) i / 4 with r(0) = 1/10
        ("1+(z*zb^3+z^3*zb)/10", "q_at_center", "0+1/40i"),
        # Q;11 = s(0) / |lambda|^6 = s(0) / 8
        (README_E2PHI, "q11_at_center", "-144673/3326400"),
    ],
    ids=["q", "q11"],
)
def test_complex_lambda_by_value(capsys, expr, key, value):
    code, out = run(capsys, "invariants", "--input-kind", "conformal_factor_e2phi",
                    "--expr", expr, "--order", "12", "--lambda", "1,1")
    values = json.loads(out)["values"]
    assert code == 0
    assert (values["lambda"], values[key]) == ("1+1i", value)


def test_exit_code_helper():
    assert cli._exit_code({"a": {"exact_zero": True}}) == 0
    assert cli._exit_code({"a": {"exact_zero": False, "value": "1"}}) == 2
    assert cli._exit_code({"a": {"within_tolerance": False}}) == 2


def _readme_flags(text):
    return set(re.findall(r"--[a-z][a-z-]*", text))


def test_readme_cli_table_matches_the_parser():
    """README's CLI table names exactly the flags of each subcommand, with
    "surface input" and the flags every subcommand takes expanded as the
    README text defines them."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    common = _readme_flags(re.search(r"Every subcommand\s+takes (.*?)\.", readme, re.S)[1])
    surface = _readme_flags(
        re.search(r"A \*surface input\* is (.*?)\.\s", readme, re.S)[1])
    documented = {}
    for name, cell in re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M):
        documented[name] = common | _readme_flags(cell) | (
            surface if "surface input" in cell else set())
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings
               if flag.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == parsed


def test_readme_examples_run(capsys):
    """Each `cartanq` command of README's CLI examples exits 0 with nothing
    on stderr."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    commands = [shlex.split(line, comments=True)
                for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["cartanq"]]
    assert {argv[0] for argv in commands} == set(FULL)
    for argv in commands:
        code, out, err = outcome(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert set(json.loads(out)) >= {"input", "version"}


def test_readme_names_the_quadrature_verdicts(capsys):
    """README lists exactly the verdict keys that quadrature-check prints, and
    names no other *_spherical key."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Its\s+report\s+holds\s+\w+\s+rigidity\s+verdicts,\s+(.*?)\.", readme)[1]
    _, out = run(capsys, "quadrature-check")
    printed = set(json.loads(out)["verdicts"])
    assert set(re.findall(r"`(\w+)`", sentence)) == printed
    assert set(re.findall(r"`(\w+_spherical)`", readme)) == printed


# -- fuzz: every argv ends as exit 0, 1 or 2, never as an exception --------------------

_SURFACE_FLAGS = {
    "--input-kind": ("line_bundle_metric_h", "conformal_factor_e2phi",
                     "rigid_defining_F", "compact_profile_psi", "bogus"),
    "--expr": (F44, "(1+z*zb)^-2", "1+z*zb", "exp(-z*zb)", "z*zb", "log(2+z*zb)",
               "1 + @", "z^", "(1+z)^-3", "zb*z + z^2*zb^2", "",
               "(" * 200 + "1+z*zb" + ")" * 200, "1+" + "-" * 1500, "\u0661+z*zb"),
    "--coeff-file": ("{good}", "{bad}", "{dir}/missing.coeffs", "{dir}/nonutf8.coeffs"),
    "--order": ("4", "6", "8", "12", "3", "-1", "65", "x", "1.5", "\u0661\u0662", "1_2"),
}
# Flags that no subcommand takes: --format and --out were removed (as was
# sphericity's --verify-order below), and --bogus never existed.
_OUTPUT_FLAGS = {
    "--format": ("json", "text", "xml"),
    "--out": ("{dir}/report.json", "{dir}/missing/report.json"),
    "--bogus": ("1",),
}
_DISPLAY_ORDER = {"--display-order": ("0", "3", "12", "-1", "x")}

FUZZ_FLAGS = {
    "curvature": {**_SURFACE_FLAGS, **_OUTPUT_FLAGS, **_DISPLAY_ORDER},
    "invariants": {**_SURFACE_FLAGS, **_OUTPUT_FLAGS, **_DISPLAY_ORDER,
                   "--lambda": ("1", "2", "1,1", "0", "0,0", "1,2,3", "1/0", "a")},
    "sphericity": {**_SURFACE_FLAGS, **_OUTPUT_FLAGS, **_DISPLAY_ORDER,
                   "--verify-order": ("0", "4", "12", "-3", "x")},
    "calibrate-c": {**_OUTPUT_FLAGS,
                    "--probes": ("1/10,1/16,1/25", "1/10,1/16,1/25,1/36", "1/10,1/10,1/25",
                                 "0,1/2,1/3", "1/10", "", "1/0", "a,b", "1_0/3,1/16,1/25"),
                    "--family": ("a44", "a24", "a66"),
                    "--order": ("8", "12", "6", "-1", "65", "x", "\u0661\u0662", "1_2"),
                    **_DISPLAY_ORDER},
    "verify-identities": {**_SURFACE_FLAGS, **_OUTPUT_FLAGS, **_DISPLAY_ORDER},
    "quadrature-check": {**_OUTPUT_FLAGS,
                         "--input-kind": ("compact_profile_psi", "rigid_defining_F"),
                         "--expr": ("u/10", "", "exp(u)-1", "u^", "z", "1/(1+u)", "u^17",
                                    "(" * 200 + "u" + ")" * 200, "1+" + "-" * 1500 + "u"),
                         "--radial-panels": ("1", "2", "0", "33", "x"),
                         "--angular-nodes": ("16", "64", "15", "2049", "x"),
                         "--tolerance": ("1e-6", "1e-300", "0", "-1", "nan", "x",
                                         "1_0e-7", "\u0661e-6"),
                         "--coeff-file": ("{good}", "{dir}/nonutf8.coeffs"),
                         "--order": ("8", "\u0661\u0662", "1_2"),
                         **_DISPLAY_ORDER},
}

_SURFACE_BASE = ["--input-kind", "rigid_defining_F", "--expr", F44, "--order", "8"]


@st.composite
def fuzz_argv(draw):
    """One subcommand and up to four flags with drawn values, flags that the
    subcommand does not take included; a surface subcommand starts from a
    valid input half of the time, so that the drawn flags also reach the
    computation and the report."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    argv = [command]
    if "--input-kind" in flags and command != "quadrature-check" and draw(st.booleans()):
        argv += _SURFACE_BASE
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    from cartanq.expr import parse_expression

    path = tmp_path_factory.mktemp("fuzz")
    (path / "good.coeffs").write_text(dumps(parse_expression(F44, 10)))
    (path / "bad.coeffs").write_text("order 6\n1 1 one 0/1\n")
    (path / "nonutf8.coeffs").write_bytes(b"order 6\n\xff\xfe 1 1 0\n")
    return path


@settings(derandomize=True, max_examples=150, deadline=10_000)
@given(argv=fuzz_argv())
def test_cli_fuzz_exit_contract(fuzz_dir, argv):
    argv = [a.format(dir=fuzz_dir, good=fuzz_dir / "good.coeffs",
                     bad=fuzz_dir / "bad.coeffs") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        lines = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(lines) == 1, (argv, err.getvalue())
