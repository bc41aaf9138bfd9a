"""Validation and comparison helpers for dense complex matrices.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype ``complex128``.
``as_complex_matrix`` is the boundary check every public entry point uses,
and the one place that requires a non-empty square matrix;
``max_abs_diff`` compares two of them.
"""

import numpy as np


def as_complex_matrix(data) -> np.ndarray:
    """Coerce ``data`` into a fresh square complex128 array.

    Rejects anything that is not a non-empty square matrix and any non-finite
    entry (NaN or Inf in either component), so bad values fail loudly at the
    boundary instead of propagating through the arithmetic.
    """
    a = np.array(data, dtype=np.complex128, order="C")
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
