"""CLI surface: subcommands, exit-code contract, JSON schema stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanq import cli
from cartanq.seriesfile import dumps

GOLDEN = Path(__file__).parent / "golden"

F44 = "z*zb + 1/10*z^4*zb^4"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_rejected(capsys, argv):
    """Returns (exit code, stdout, `error:` lines of stderr), also when
    argparse rejects the argv."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, [l for l in captured.err.splitlines() if "error:" in l]


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
    code, out = run(capsys, "calibrate-c", "--probes", "1/10,1/16,1/25")
    assert code == 0
    assert json.loads(out)["calibration"]["c"] == "96"


def test_verify_identities_without_input(capsys):
    code, out = run(capsys, "verify-identities")
    assert code == 0
    residuals = json.loads(out)["residuals"]
    assert residuals["bracket_identity"]["exact_zero"] is True
    assert residuals["bracket_negative_control_nonzero"]["exact_zero"] is True


def test_verify_identities_with_input(capsys):
    code, out = run(
        capsys, "verify-identities", "--input-kind", "rigid_defining_F",
        "--expr", F44, "--order", "12",
    )
    assert code == 0
    assert "qisgauss_identity_1" in json.loads(out)["residuals"]


def test_quadrature_check(capsys):
    code, out = run(capsys, "quadrature-check", "--expr", "u*(1-u)/10")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["numeric_spherical"] is False
    assert report["residuals"]["calabi_identity_K"]["within_tolerance"] is True


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


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(
        capsys, "calibrate-c", "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["calibration"]["c"] == "96"


def test_text_format(capsys):
    code, out = run(
        capsys, "curvature", "--input-kind", "conformal_factor_e2phi",
        "--expr", "(1+z*zb)^-2", "--order", "10", "--format", "text",
    )
    assert code == 0
    assert "K_at_center: 4" in out


# -- error and exit-code contract ---------------------------------------------------


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate-c", "--family", "bogus"])
    assert exc.value.code == 1


def test_domain_error_exits_1(capsys):
    code, _ = run(
        capsys, "curvature", "--input-kind", "line_bundle_metric_h",
        "--expr", "1+z*zb", "--order", "10",
    )
    assert code == 1
    assert "error" in capsys.readouterr().err or True


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
        ("sphericity", "--input-kind", "conformal_factor_e2phi",
         "--expr", "1+z*zb", "--order", "8", "--verify-order", "-3"),
        # a bad tolerance must not turn a 3e-14 Calabi residual into exit 2
        *[("quadrature-check", "--expr", "u/10", "--tolerance", t)
          for t in ("-1", "0", "nan", "inf", "1e400")],
        # cost caps: --order <= 64, --radial-panels <= 32, --angular-nodes <= 2048
        ("curvature", "--input-kind", "conformal_factor_e2phi",
         "--expr", "1+z*zb", "--order", "65"),
        ("calibrate-c", "--order", "65"),
        ("verify-identities", "--order", "65"),
        ("quadrature-check", "--radial-panels", "33"),
        ("quadrature-check", "--angular-nodes", "15"),
        ("quadrature-check", "--angular-nodes", "100000000"),
    ],
    ids=["negative_display_order", "calibrate_order_6", "zero_radial_panels",
         "negative_verify_order", "tolerance_negative", "tolerance_zero",
         "tolerance_nan", "tolerance_inf", "tolerance_overflow",
         "order_above_cap", "calibrate_order_above_cap", "verify_order_above_cap",
         "radial_panels_above_cap", "angular_nodes_below_16",
         "angular_nodes_above_cap"],
)
def test_bad_numeric_flag_exits_1(capsys, argv):
    code, _, errors = run_rejected(capsys, argv)
    assert code == 1
    assert len(errors) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("quadrature-check", "--coeff-file", "no-such-file.coeffs"),
        ("quadrature-check", "--order", "99"),
        ("quadrature-check", "--display-order", "3"),
        ("calibrate-c", "--display-order", "3"),
        ("verify-identities", "--display-order", "3"),
        ("verify-identities", "--input-kind", "rigid_defining_F"),
        ("curvature", "--input-kind", "compact_profile_psi", "--expr", "1+z*zb"),
        ("quadrature-check", "--expr", "exp(u)-1"),
        ("quadrature-check", "--expr", "1/(1+u)"),
        ("quadrature-check", "--expr", "1/(1+u^18)"),
    ],
    ids=["quadrature_coeff_file", "quadrature_order", "quadrature_display_order",
         "calibrate_display_order", "verify_display_order", "verify_kind_without_input",
         "surface_profile_kind", "profile_exp", "profile_reciprocal",
         "profile_reciprocal_far_term"],
)
def test_flag_a_subcommand_would_ignore_exits_1(capsys, argv):
    """A flag the subcommand does not read, or an input it would silently
    truncate, is a usage error rather than a no-op."""
    code, out, errors = run_rejected(capsys, argv)
    assert (code, out, len(errors)) == (1, "", 1)


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


@pytest.mark.parametrize("psi", ["400*u", "-90*u", "-400*u"])
def test_profile_outside_the_float_range_exits_1(psi):
    """e^{2phi} overflows (400 u) or underflows (-400 u), or K_{;zbar zbar}
    does (-90 u): one `error:` line and no numpy warning on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-m", "cartanq.cli", "quadrature-check", f"--expr={psi}"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (1, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr


def test_unresolved_quadrature_exits_2_until_refined(capsys):
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


def test_exit_code_helper():
    assert cli._exit_code({"a": {"exact_zero": True}}) == 0
    assert cli._exit_code({"a": {"exact_zero": False, "value": "1"}}) == 2
    assert cli._exit_code({"a": {"within_tolerance": False}}) == 2


# -- fuzz: every argv ends as exit 0, 1 or 2, never as an exception --------------------

_SURFACE_FLAGS = {
    "--input-kind": ("line_bundle_metric_h", "conformal_factor_e2phi",
                     "rigid_defining_F", "compact_profile_psi", "bogus"),
    "--expr": (F44, "(1+z*zb)^-2", "1+z*zb", "exp(-z*zb)", "z*zb", "log(2+z*zb)",
               "1 + @", "z^", "(1+z)^-3", "zb*z + z^2*zb^2", ""),
    "--coeff-file": ("{good}", "{bad}", "{dir}/missing.coeffs"),
    "--order": ("4", "6", "8", "12", "3", "-1", "65", "x", "1.5"),
}
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
                                 "0,1/2,1/3", "1/10", "", "1/0", "a,b"),
                    "--family": ("a44", "a24", "a66"),
                    "--order": ("8", "12", "6", "-1", "65", "x"),
                    **_DISPLAY_ORDER},
    "verify-identities": {**_SURFACE_FLAGS, **_OUTPUT_FLAGS, **_DISPLAY_ORDER},
    "quadrature-check": {**_OUTPUT_FLAGS,
                         "--input-kind": ("compact_profile_psi", "rigid_defining_F"),
                         "--expr": ("u/10", "", "exp(u)-1", "u^", "z", "1/(1+u)", "u^17"),
                         "--radial-panels": ("1", "2", "0", "33", "x"),
                         "--angular-nodes": ("16", "64", "15", "2049", "x"),
                         "--tolerance": ("1e-6", "1e-300", "0", "-1", "nan", "x"),
                         "--coeff-file": ("{good}",), "--order": ("8",),
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
