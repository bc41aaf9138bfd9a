from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fetexpm import expm, expm_taylor_squaring
from fetexpm.matio import (MatrixParseError, as_complex_matrix, format_matrix, load_matrix,
                           parse_matrix)


def test_parse_real_matrix():
    text = "2\n-73 36\n-96 47\n"
    assert_array_equal(parse_matrix(text), np.array([[-73.0, 36.0], [-96.0, 47.0]]))


def test_parse_complex_entries_both_separators():
    text = "2\n(1,2) (3 4)\n0.5 (0,-1)\n"
    expected = np.array([[1 + 2j, 3 + 4j], [0.5, -1j]])
    assert_array_equal(parse_matrix(text), expected)


def test_parse_skips_comments_and_blank_lines():
    text = "# heading\n\n2\n# interior note\n1 0\n\n0 1\n"
    assert_array_equal(parse_matrix(text), np.eye(2))


def test_parse_scientific_notation():
    text = "1\n-1.25e-3\n"
    assert parse_matrix(text)[0, 0] == -1.25e-3


def test_roundtrip_is_bitwise():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a[0, 0] = -0.0
    again = parse_matrix(format_matrix(a))
    assert again.tobytes() == a.tobytes()


def test_format_starts_with_header_line():
    text = format_matrix(np.eye(2))
    assert text.splitlines()[0] == "2"
    assert len(text.splitlines()) == 3


def test_bad_number_reports_line_and_column():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2\n1 oops\n3 4\n")
    assert err.value.line == 2
    assert err.value.column == 3
    assert "oops" in str(err.value)


def test_wrong_entry_count_reports_position():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2\n1 2 3\n4 5\n")
    assert err.value.line == 2
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("2\n1\n4 5\n")
    assert err.value.line == 2


def test_missing_and_extra_rows():
    with pytest.raises(MatrixParseError, match="expected 3 rows"):
        parse_matrix("3\n1 2 3\n4 5 6\n")
    with pytest.raises(MatrixParseError, match="unexpected data"):
        parse_matrix("1\n1\n2\n")


def test_bad_headers():
    with pytest.raises(MatrixParseError, match="single dimension"):
        parse_matrix("2 2\n1 2\n3 4\n")
    with pytest.raises(MatrixParseError, match="integer"):
        parse_matrix("two\n")
    with pytest.raises(MatrixParseError, match="positive"):
        parse_matrix("0\n")
    with pytest.raises(MatrixParseError, match="empty"):
        parse_matrix("# nothing here\n")


def test_unterminated_group_and_bad_pair():
    with pytest.raises(MatrixParseError, match="unterminated"):
        parse_matrix("1\n(1,2\n")
    with pytest.raises(MatrixParseError, match="two components"):
        parse_matrix("1\n(1,2,3)\n")


def test_entries_must_be_separated_by_whitespace():
    # the error points at the second of two touching entries
    for text, line, column in [
        ("2\n(1,2)(3,4)\n1 2", 2, 6),
        ("2\n1(3,4)\n1 2", 2, 2),
        ("1\n(1,2))", 2, 6),
        ("2\n1 2\n3 (4 5)6", 3, 8),
    ]:
        with pytest.raises(MatrixParseError, match="separated by whitespace") as err:
            parse_matrix(text)
        assert (err.value.line, err.value.column) == (line, column)


def test_non_finite_rejected():
    with pytest.raises(MatrixParseError, match="non-finite"):
        parse_matrix("1\nnan\n")
    with pytest.raises(MatrixParseError, match="non-finite"):
        parse_matrix("1\n(inf,0)\n")


def test_numbers_are_ascii_literals():
    # float and int would read these as 10, 1, 10 + 2j, 1 + 2j, 1e10 and 1
    for text, line, column in [("1\n1_0\n", 2, 1), ("1\n\u0661\n", 2, 1),
                               ("2\n0 (1_0,2)\n0 0\n", 2, 3), ("2\n0 0\n0 (1 \u0662)\n", 3, 3),
                               ("1\n1e1_0\n", 2, 1), ("1\n\uff11\n", 2, 1)]:
        with pytest.raises(MatrixParseError, match="not a number") as err:
            parse_matrix(text)
        assert (err.value.line, err.value.column) == (line, column)
    # headers that int would read as 1 and 10
    for header in ("\u0661", "1_0"):
        with pytest.raises(MatrixParseError, match="dimension must be an integer") as err:
            parse_matrix(f"# note\n {header}\n1\n")
        assert (err.value.line, err.value.column) == (2, 2)
    with pytest.raises(MatrixParseError, match="non-finite"):
        parse_matrix("1\n-Infinity\n")


def test_load_matrix_missing_file(tmp_path):
    # a file that cannot be read has no offending position to report
    for path in (tmp_path / "absent.txt", tmp_path):
        with pytest.raises(MatrixParseError, match="^cannot read") as err:
            load_matrix(path)
        assert err.value.line is None and err.value.column is None
        assert "line" not in str(err.value)


def test_load_matrix_reports_non_utf8_byte_position(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2\n1 \xff\n0 1\n")
    with pytest.raises(MatrixParseError, match="0xff") as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (2, 3)
    # columns count characters as the parser does, and lines split as it splits
    path.write_bytes("# \u00e9\r\n2\r\n1 0\r\n0 \u00e9".encode("utf-8") + b"\xff\n")
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (4, 4)


def test_rows_end_only_at_line_ends(tmp_path):
    # str.splitlines also ends a line at each of these; a matrix file ends one
    # only at LF, CR LF or CR, and elsewhere they separate entries
    for space in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        assert_array_equal(parse_matrix(f"2\n1{space}2\n3 4\n"), [[1, 2], [3, 4]])
        with pytest.raises(MatrixParseError, match="found 4") as err:
            parse_matrix(f"2\n1 2{space}3 4\n5 6\n")
        assert (err.value.line, err.value.column) == (2, 5)
        with pytest.raises(MatrixParseError, match="found 3") as err:
            parse_matrix(f"2\n1 2\n3 4{space}x\n")
        assert (err.value.line, err.value.column) == (3, 5)
        # the non-UTF-8 position counts lines the same way
        path = tmp_path / "spaced.txt"
        path.write_bytes(f"2\n1{space}2\n3 ".encode("utf-8") + b"\xff\n")
        with pytest.raises(MatrixParseError, match="0xff") as err:
            load_matrix(path)
        assert (err.value.line, err.value.column) == (3, 3)
    for end in ("\n", "\r\n", "\r"):
        with pytest.raises(MatrixParseError, match="found 3") as err:
            parse_matrix(end.join(["2", "1 2", "3 4 x", ""]))
        assert (err.value.line, err.value.column) == (3, 5)


def test_load_matrix_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    bom = b"\xef\xbb\xbf"
    path.write_bytes(bom + b"2\n1 0\n0 1")
    assert_array_equal(load_matrix(path), np.eye(2))
    # a comment after the mark stays a comment, not the header
    path.write_bytes(bom + b"# made elsewhere\n2\n1 0\n0 1\n")
    assert_array_equal(load_matrix(path), np.eye(2))
    # positions count from after the mark, as the parser counts them
    path.write_bytes(bom + b"2\n1 \xff\n0 1\n")
    with pytest.raises(MatrixParseError, match="0xff") as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (2, 3)
    path.write_bytes(bom + b"\xff2\n")
    with pytest.raises(MatrixParseError, match="0xff") as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (1, 1)
    path.write_bytes(bom + b"2\n1 x\n0 1\n")
    with pytest.raises(MatrixParseError, match="'x'") as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (2, 3)


def test_load_matrix_roundtrip(tmp_path):
    path = tmp_path / "rot.txt"
    path.write_text(format_matrix(np.array([[0.0, -1.0], [1.0, 0.0]])))
    assert_array_equal(load_matrix(path), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_format_rejects_non_square():
    with pytest.raises(ValueError):
        format_matrix(np.ones((2, 3)))


def test_format_rejects_empty_matrix():
    # "0" would be a header that parse_matrix refuses
    with pytest.raises(ValueError, match="non-empty"):
        format_matrix(np.zeros((0, 0)))


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[complex(0.0, np.inf)]])
    for shape in ((2, 3), (3, 2), (0, 0), (0, 3), (1, 0)):
        with pytest.raises(ValueError, match="square and non-empty"):
            as_complex_matrix(np.zeros(shape))


def test_entries_beyond_the_double_range_are_not_finite():
    # numpy's conversion of these Python numbers raises OverflowError, the
    # error that expm reserves for its own overflow verdicts
    for data in ([[10**400]], np.array([[10**400]], dtype=object), [[-10**309]],
                 [[Fraction(10**400)]], [[1.0, 2**1024], [0.0, 1.0]]):
        for check in (as_complex_matrix, format_matrix, expm, expm_taylor_squaring):
            with pytest.raises(ValueError, match="must be finite"):
                check(data)


def test_as_complex_matrix_rejects_text_entries():
    # numpy would parse these as numbers: "4" as 4, "1+2j" (which the matrix
    # file grammar rejects) as 1+2j and b"1" as 1
    for text in ([[1, 2], [3, "4"]], [["1+2j"]], [[b"1"]], np.array([["1"]], dtype=object),
                 np.array([[1.0, b"2"], [3.0, 4.0]], dtype=object)):
        with pytest.raises(ValueError, match="not text"):
            as_complex_matrix(text)
    with pytest.raises(ValueError, match="not text"):
        expm([[1, 2], [3, "4"]])
    # numbers held as Python objects are still numbers
    assert as_complex_matrix(np.array([[Fraction(1, 2)]], dtype=object))[0, 0] == 0.5
    assert as_complex_matrix([[True]])[0, 0] == 1.0
