"""CLI surface: subcommands, exit-code contract, JSON schema stability."""

import json
from pathlib import Path

import pytest

from cartanq import cli
from cartanq.seriesfile import dumps

GOLDEN = Path(__file__).parent / "golden"

F44 = "z*zb + 1/10*z^4*zb^4"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    ],
    ids=["negative_display_order", "calibrate_order_6", "zero_radial_panels",
         "negative_verify_order", "tolerance_negative", "tolerance_zero",
         "tolerance_nan", "tolerance_inf", "tolerance_overflow"],
)
def test_bad_numeric_flag_exits_1(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


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
