"""Coefficient-file format: exact round trip, canonical writing, error reporting."""

import random
import sys
from fractions import Fraction

import pytest

from cartanq import seriesfile
from cartanq.errors import CoefficientFileError, digit_limit_message
from cartanq.seriesfile import dumps, loads, read_int, read_rational, read_series
from cartanq.series import TruncatedSeries
from conftest import random_series


def test_round_trip_random(tmp_path):
    rng = random.Random(7)
    for _ in range(20):
        s = random_series(rng, 12)
        path = tmp_path / "s.coeffs"
        path.write_text(dumps(s), encoding="utf-8")
        assert read_series(path) == s


def test_written_files_are_sorted():
    s = TruncatedSeries(4, {(2, 0): 1, (0, 0): 3, (1, 1): 2})
    lines = dumps(s).splitlines()
    assert lines[0] == "order 4"
    assert lines[1].startswith("0 0")
    # degree-2 block in lexicographic order of (k, l)
    assert lines[2].startswith("1 1") and lines[3].startswith("2 0")


def test_unsorted_read_accepted():
    text = "order 4\n2 0 1/1 0/1\n0 0 3/1 0/1\n"
    s = loads(text)
    assert s.coeff(2, 0).re == 1 and s.coeff(0, 0).re == 3


def test_degree_exceeds_order():
    with pytest.raises(CoefficientFileError) as err:
        loads("order 4\n5 0 1/1 0/1\n")
    assert err.value.lineno == 2


def test_duplicate_pair():
    with pytest.raises(CoefficientFileError) as err:
        loads("order 4\n1 1 1/1 0/1\n1 1 2/1 0/1\n")
    assert err.value.lineno == 3


def test_malformed_header_and_lines():
    with pytest.raises(CoefficientFileError):
        loads("")
    with pytest.raises(CoefficientFileError):
        loads("order x\n")
    with pytest.raises(CoefficientFileError) as err:
        loads("order 4\n1 1 1/0 0/1\n")
    assert err.value.lineno == 2
    with pytest.raises(CoefficientFileError):
        loads("order 4\n1 1 1/1\n")


@pytest.mark.parametrize("text, error", [
    ("ordr 4\n", "line 1: expected header 'order N'"),
    ("order -1\n", "line 1: order must be non-negative"),
    ("order 4\n1 1 1/1 0/1\n-1 2 1/1 0/1\n", "line 3: negative exponents (-1, 2)"),
], ids=["misspelt_header", "negative_order", "negative_exponent"])
def test_file_error_names_its_line(text, error):
    with pytest.raises(CoefficientFileError) as err:
        loads(text)
    assert str(err.value) == error


def test_no_float_in_round_trip():
    text = dumps(TruncatedSeries(2, {(1, 1): 1}))
    assert "." not in text and "e" not in text.replace("order", "")


# -- numbers beyond the digit limit ------------------------------------------------

LIMIT = sys.get_int_max_str_digits()


@pytest.fixture
def unbuilt(monkeypatch):
    """Fails a test that would build the Fraction of a rejected number."""

    def refuse(text):
        raise AssertionError(f"Fraction({text[:20]!r}...) built")

    monkeypatch.setattr(seriesfile, "Fraction", refuse)


@pytest.mark.parametrize("text", ["0.1", "-1/2", "1/10", "3", "2.5e-3", "-.5", " 1/3 "])
def test_read_rational_reads_as_fraction(text):
    assert read_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1_000", "1_0/3", "1/1_0", "1.5_0", "1e1_0",
                                  "\u0661/2", "1/\uff12", "\u0661.5"])
def test_read_rational_takes_ascii_digits_without_underscores(text):
    with pytest.raises(ValueError) as err:
        read_rational(text)
    assert str(err.value) == f"Invalid literal for Fraction: {text!r}"


@pytest.mark.parametrize(
    "text", [f"1e{LIMIT - 1}", f"1e-{LIMIT - 2}", "1" * LIMIT],
    ids=["exponent", "negative_exponent", "integer"],
)
def test_read_rational_reads_up_to_the_digit_limit(text):
    assert read_rational(text) == Fraction(text)


@pytest.mark.parametrize("text, digits", [
    (f"1e{LIMIT}", LIMIT + 1),
    (f"-1e-{LIMIT}", LIMIT + 1),
    ("1e200000", 200001),
    ("0e200000", 200001),
    ("2.5e1000000", 1000002),
    ("0." + "0" * (LIMIT - 1) + "1", LIMIT + 1),
    ("1/" + "1" * (LIMIT + 1), LIMIT + 1),
    ("1e" + "9" * (LIMIT + 1), LIMIT + 1),
], ids=["exponent", "negative_exponent", "1e200000", "zero", "decimal_exponent",
        "decimal", "denominator", "exponent_digits"])
def test_read_rational_rejects_beyond_the_digit_limit_unbuilt(unbuilt, text, digits):
    with pytest.raises(OverflowError) as err:
        read_rational(text)
    assert str(err.value).startswith(f"value has {digits} digits")
    assert "PYTHONINTMAXSTRDIGITS" in str(err.value)


def test_coefficient_beyond_the_digit_limit_unbuilt(unbuilt):
    with pytest.raises(CoefficientFileError) as err:
        loads("order 4\n1 1 1e200000 0\n")
    assert err.value.lineno == 2
    assert "value has 200001 digits" in str(err.value)


@pytest.mark.parametrize("text", ["0", "-12", "+3", " 7 ", "007", "1" * LIMIT])
def test_read_int_reads_as_int(text):
    assert read_int(text) == int(text)


@pytest.mark.parametrize("text", ["1" * (LIMIT + 1), "-" + "1" * (LIMIT + 1)],
                         ids=["plain", "signed"])
def test_read_int_rejects_beyond_the_digit_limit(text):
    with pytest.raises(OverflowError) as err:
        read_int(text)
    assert str(err.value) == digit_limit_message(LIMIT + 1)


@pytest.mark.parametrize("text", ["x", "1.5", "0x10", "1__0", "x" * (LIMIT + 1)])
def test_read_int_keeps_the_int_error_for_other_text(text):
    with pytest.raises(ValueError, match="invalid literal for int"):
        read_int(text)


@pytest.mark.parametrize("text, lineno", [
    ("order " + "1" * (LIMIT + 1) + "\n", 1),
    ("order 4\n" + "1" * (LIMIT + 1) + " 1 1 0\n", 2),
    ("order 4\n1 " + "1" * (LIMIT + 1) + " 1 0\n", 2),
], ids=["order", "k", "l"])
def test_integer_field_beyond_the_digit_limit(text, lineno):
    with pytest.raises(CoefficientFileError) as err:
        loads(text)
    assert str(err.value) == f"line {lineno}: {digit_limit_message(LIMIT + 1)}"


@pytest.mark.parametrize("text", ["1_000", "1_" * LIMIT + "1", "\u0661\u0662", "\uff12",
                                  "-\u0663"],
                         ids=["underscore", "underscores_beyond_the_limit", "arabic_indic",
                              "fullwidth", "signed_arabic_indic"])
def test_read_int_takes_ascii_digits_without_underscores(text):
    with pytest.raises(ValueError) as err:
        read_int(text)
    assert str(err.value) == f"invalid literal for int() with base 10: {text!r:.200}"


def test_non_ascii_and_underscored_fields_are_file_errors():
    with pytest.raises(CoefficientFileError, match="line 1: bad order '1_2'"):
        loads("order 1_2\n")
    with pytest.raises(CoefficientFileError, match="line 1: bad order '\u0661\u0662'"):
        loads("order \u0661\u0662\n")
    with pytest.raises(CoefficientFileError, match="line 2: invalid literal for int"):
        loads("order 4\n1_0 0 1 0\n")
    with pytest.raises(CoefficientFileError, match="line 2: Invalid literal for Fraction"):
        loads("order 4\n1 1 1_0 0\n")


@pytest.mark.parametrize("data, lineno, byte", [
    (b"\xff\xfe", 1, "0xff"),
    (b"order 4\n1 1 1/2 0\n\xff\xfe 0 1 0\n", 3, "0xff"),
    (b"order 4\n1 1 1/2 0\xc3\n", 2, "0xc3"),
], ids=["first_line", "third_line", "truncated_sequence"])
def test_non_utf8_file_is_a_coefficient_file_error(tmp_path, data, lineno, byte):
    path = tmp_path / "bad.coeffs"
    path.write_bytes(data)
    with pytest.raises(CoefficientFileError) as err:
        read_series(path)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: not UTF-8 text: byte {byte}"


def test_crlf_file_reads_as_lf(tmp_path):
    path = tmp_path / "crlf.coeffs"
    path.write_bytes(b"order 4\r\n1 1 1/2 0\r\n")
    assert read_series(path) == loads("order 4\n1 1 1/2 0\n")


def test_non_numeric_integer_fields_keep_their_errors():
    with pytest.raises(CoefficientFileError, match="line 1: bad order 'abc'"):
        loads("order abc\n")
    with pytest.raises(CoefficientFileError, match="line 2: invalid literal for int"):
        loads("order 4\nx 1 1 0\n")
