"""Square matrices in and out: the input check and plain-text matrix files.

``as_complex_matrix`` decides what a valid matrix is, so it sits with the
file format, whose parser yields only matrices the check accepts.  Files are
UTF-8 text; a leading byte-order mark is skipped.  Layout: any number of
``#`` comment lines, one header line holding the dimension ``n``, then
exactly ``n`` rows of ``n`` whitespace-separated entries; a line ends only at
LF, CR LF or CR.  A bare number is a real entry; a complex entry is a
parenthesized pair, ``(re,im)`` or ``(re im)``.  Values are written back
with 17 significant digits, which round-trips doubles exactly.
"""

import math
import re

import numpy as np


def as_complex_matrix(data) -> np.ndarray:
    """Coerce ``data`` into a fresh square complex128 array.

    Rejects anything that is not a non-empty square matrix, any non-finite
    entry (NaN or Inf in either component) and any text entry, which numpy
    would otherwise parse as a number, so bad values fail loudly at the
    boundary instead of propagating through the arithmetic.
    """
    raw = np.asarray(data)
    # only the dtype kind is checked for arrays of numbers; object arrays,
    # which numpy also parses entry by entry, are searched for text
    if raw.dtype.kind in "SU" or (
        raw.dtype.kind == "O" and any(isinstance(x, (str, bytes)) for x in raw.flat)
    ):
        raise ValueError("matrix entries must be numbers, not text")
    a = np.array(raw, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"matrix must be square and non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


class MatrixParseError(ValueError):
    """Malformed matrix text, with 1-based line/column of the offence.

    A file that cannot be read has no offending position: ``line`` and
    ``column`` are then ``None`` and the message carries none.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# a parenthesized group, closed or not, or a run of other non-space characters
_TOKEN = re.compile(r"\([^)]*\)?|[^\s(]+")
# a line with its end, which tokenizes as whitespace; str.splitlines would also
# end lines at form feeds, vertical tabs, U+001C-U+001E, U+0085, U+2028, U+2029
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _tokenize(text: str, line_no: int):
    """Split one line into (token, line, column) triples; parens group."""
    tokens = []
    for match in _TOKEN.finditer(text):
        token, column = match.group(), match.start() + 1
        if tokens and not text[match.start() - 1].isspace():
            raise MatrixParseError("entries must be separated by whitespace", line_no, column)
        if token.startswith("(") and not token.endswith(")"):
            raise MatrixParseError("unterminated '('", line_no, column)
        tokens.append((token, line_no, column))
    return tokens


def _parse_real(text: str, line: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MatrixParseError(f"not a number: {text!r}", line, column) from None
    if not math.isfinite(value):
        raise MatrixParseError(f"non-finite value: {text!r}", line, column)
    return value


def _parse_entry(token: str, line: int, column: int) -> complex:
    if token.startswith("("):
        inner = token[1:-1]
        parts = inner.split(",") if "," in inner else inner.split()
        if len(parts) != 2:
            raise MatrixParseError(
                f"complex entry needs two components: {token!r}", line, column
            )
        re = _parse_real(parts[0].strip(), line, column)
        im = _parse_real(parts[1].strip(), line, column)
        return complex(re, im)
    return complex(_parse_real(token, line, column), 0.0)


def parse_matrix(text: str) -> np.ndarray:
    """Parse matrix text into a complex array, reporting line/column on failure."""
    rows = []
    last_line = 0
    for line_no, line in enumerate(_LINE.findall(text), start=1):
        last_line = line_no
        if line.lstrip().startswith("#") or not line.strip():
            continue
        rows.append(_tokenize(line, line_no))

    if not rows:
        raise MatrixParseError("empty matrix file", last_line + 1, 1)
    header = rows[0]
    if len(header) != 1:
        tok, line, col = header[1]
        raise MatrixParseError(f"header must be a single dimension, got {tok!r}", line, col)
    tok, line, col = header[0]
    try:
        n = int(tok)
    except ValueError:
        raise MatrixParseError(f"dimension must be an integer, got {tok!r}", line, col) from None
    if n < 1:
        raise MatrixParseError(f"dimension must be positive, got {n}", line, col)

    data_rows = rows[1:]
    if len(data_rows) < n:
        raise MatrixParseError(
            f"expected {n} rows, found {len(data_rows)}", last_line + 1, 1
        )
    if len(data_rows) > n:
        _, line, col = data_rows[n][0]
        raise MatrixParseError(f"unexpected data after {n} rows", line, col)

    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(data_rows):
        if len(row) != n:
            _, line, col = row[n] if len(row) > n else row[-1]
            raise MatrixParseError(
                f"expected {n} entries in row, found {len(row)}", line, col
            )
        for j, (tok, line, col) in enumerate(row):
            out[i, j] = _parse_entry(tok, line, col)
    return out


def load_matrix(path) -> np.ndarray:
    """Read and parse a UTF-8 matrix file from disk, with or without a byte-order mark."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # everything before the offending byte decodes (the codec reports its
        # position in the bytes after any byte-order mark); a sentinel character
        # makes the last of its lines the offending byte's line, split as
        # parse_matrix splits, and its length the byte's 1-based column
        body = exc.object
        lines = _LINE.findall(body[: exc.start].decode("utf-8-sig") + "?")
        raise MatrixParseError(
            f"not UTF-8 text: byte 0x{body[exc.start]:02x}", len(lines), len(lines[-1])
        ) from None
    return parse_matrix(text)


def format_matrix(a) -> str:
    """Render a matrix as parseable text: header line, then one row per line."""
    a = as_complex_matrix(a)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"({z.real:.17g},{z.imag:.17g})" for z in row))
    return "\n".join(lines) + "\n"
