import numpy as np
import pytest

from stiefel_retract import MatrixFormatError
from stiefel_retract.matio import (
    format_matrix_blocks_csv,
    format_matrix_csv,
    format_matrix_json,
    matrix_from_object,
    matrix_to_object,
    parse_matrix_blocks_csv,
    parse_matrix_csv,
    parse_matrix_json,
)

TRICKY = np.array([[0.1, 1.0 / 3.0, 1e-300], [-2.5e-17, 1e17, -0.0]])


def test_json_round_trip_exact():
    again = parse_matrix_json(format_matrix_json(TRICKY))
    assert np.array_equal(again, TRICKY)


def test_csv_round_trip_exact():
    again = parse_matrix_csv(format_matrix_csv(TRICKY))
    assert np.array_equal(again, TRICKY)


def test_random_round_trips_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
        assert np.array_equal(parse_matrix_csv(format_matrix_csv(a)), a)
        assert np.array_equal(parse_matrix_json(format_matrix_json(a)), a)


def test_csv_ragged_rows_rejected():
    with pytest.raises(MatrixFormatError, match="ragged"):
        parse_matrix_csv("1.0,2.0\n3.0\n")


def test_csv_non_numeric_rejected():
    with pytest.raises(MatrixFormatError):
        parse_matrix_csv("1.0,two\n")


def test_csv_blank_line_rejected():
    with pytest.raises(MatrixFormatError, match="blank"):
        parse_matrix_csv("1.0\n\n2.0\n")


def test_csv_empty_rejected():
    with pytest.raises(MatrixFormatError):
        parse_matrix_csv("")
    with pytest.raises(MatrixFormatError, match="no matrix blocks"):
        parse_matrix_blocks_csv("\n\n")


def test_json_data_length_mismatch_rejected():
    with pytest.raises(MatrixFormatError, match="entries"):
        matrix_from_object({"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]})


def test_json_missing_key_rejected():
    with pytest.raises(MatrixFormatError, match="missing"):
        matrix_from_object({"rows": 1, "data": [1.0]})


def test_json_non_numeric_rejected():
    with pytest.raises(MatrixFormatError):
        matrix_from_object({"rows": 1, "cols": 2, "data": [1.0, "x"]})
    with pytest.raises(MatrixFormatError):
        matrix_from_object({"rows": 1, "cols": 2, "data": [1.0, True]})


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1.0], "JSON object"),
        ({"rows": 1, "cols": 1, "data": 1.0}, "list of numbers"),
        ({"rows": 1, "cols": 2, "data": "12"}, "list of numbers"),
    ],
    ids=["array", "number-data", "text-data"],
)
def test_json_value_of_the_wrong_kind_rejected(obj, message):
    with pytest.raises(MatrixFormatError, match=message):
        matrix_from_object(obj)


def test_json_bad_shape_rejected():
    with pytest.raises(MatrixFormatError):
        matrix_from_object({"rows": 0, "cols": 2, "data": []})
    with pytest.raises(MatrixFormatError):
        matrix_from_object({"rows": 1.5, "cols": 2, "data": [1.0, 2.0, 3.0]})


def test_json_invalid_text_rejected():
    with pytest.raises(MatrixFormatError, match="invalid JSON"):
        parse_matrix_json("{not json")


def test_object_layout_is_row_major():
    obj = matrix_to_object(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert obj == {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}


def test_csv_blocks_round_trip():
    mats = [np.eye(2), np.array([[1.0, 2.0, 3.0]])]
    text = format_matrix_blocks_csv(mats)
    parsed = parse_matrix_blocks_csv(text)
    assert len(parsed) == 2
    for a, b in zip(mats, parsed):
        assert np.array_equal(a, b)


def test_json_integer_past_the_float_range_rejected():
    text = '{"rows": 1, "cols": 1, "data": [1' + "0" * 400 + "]}"
    with pytest.raises(MatrixFormatError, match="float range"):
        parse_matrix_json(text)


def test_json_nesting_past_the_recursion_limit_rejected():
    with pytest.raises(MatrixFormatError, match="invalid JSON"):
        parse_matrix_json("[" * 100000 + "]" * 100000)


@pytest.mark.parametrize("parse", [parse_matrix_json, parse_matrix_csv, parse_matrix_blocks_csv])
@pytest.mark.parametrize("raw", [None, 7], ids=["none", "int"])
def test_parsers_reject_input_that_is_not_text(parse, raw):
    # A library error instead of the builtin TypeError or AttributeError.
    with pytest.raises(MatrixFormatError, match=f"expected matrix text, got {type(raw).__name__}"):
        parse(raw)


@pytest.mark.parametrize("parse", [parse_matrix_csv, parse_matrix_blocks_csv])
def test_csv_parsers_reject_bytes(parse):
    with pytest.raises(MatrixFormatError, match="expected matrix text, got bytes"):
        parse(b"1.0,2.0\n")


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_json_parses_bytes_like_text(kind):
    text = format_matrix_json(TRICKY)
    assert np.array_equal(parse_matrix_json(kind(text.encode())), TRICKY)


@pytest.mark.parametrize("raw", [b"\xff", b"\x80[1]", b"\xff\xfe\x00"])
def test_json_bytes_that_do_not_decode_rejected(raw):
    # json.loads decodes bytes itself; a bad encoding is a format error,
    # not the builtin UnicodeDecodeError.
    with pytest.raises(MatrixFormatError, match="invalid JSON"):
        parse_matrix_json(raw)
