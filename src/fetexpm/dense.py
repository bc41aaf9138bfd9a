"""Validation and comparison helpers for dense complex matrices.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype ``complex128``.
``as_complex_matrix`` is the boundary check every public entry point uses,
and the one place that requires a non-empty square matrix;
``max_abs_diff`` compares two of them.  ``real_form`` writes a complex matrix
as the real one that multiplies stacked real and imaginary parts.
"""

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


def max_abs_diff(a, b) -> float:
    """Largest entrywise modulus of ``a - b``."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def real_form(z: np.ndarray) -> np.ndarray:
    """The real matrix ``[[X, -Y], [Y, X]]`` of ``z = X + iY``, over its last two axes.

    Its product with the stacked real ``[Re v; Im v]`` is the stacked
    ``[Re z v; Im z v]``: the conventional complex product written as four
    real ones, which keeps its error bound.
    """
    x, y = z.real, z.imag
    rows, cols = z.shape[-2:]
    real = np.empty(z.shape[:-2] + (2 * rows, 2 * cols))
    real[..., :rows, :cols] = real[..., rows:, cols:] = x
    real[..., rows:, :cols] = y
    np.negative(y, out=real[..., :rows, cols:])
    return real
