"""Dense complex-matrix arithmetic and LU factorization with partial pivoting.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype ``complex128``.
Every function here is pure: inputs are never mutated, and a factorization
may be shared freely across threads once built.
"""

from dataclasses import dataclass

import numpy as np

# Pivot magnitudes below this are reported as a hard breakdown rather than
# mere ill-conditioning.
SINGULARITY_THRESHOLD = 1e-300


class SingularMatrixError(ArithmeticError):
    """Raised when elimination meets a pivot too small to divide by."""


def as_complex_matrix(data) -> np.ndarray:
    """Coerce ``data`` into a fresh 2-D complex128 array.

    Rejects anything that is not two-dimensional and any non-finite entry
    (NaN or Inf in either component), so bad values fail loudly at the
    boundary instead of propagating through the arithmetic.
    """
    a = np.array(data, dtype=np.complex128, order="C")
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim}-D data")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_abs_diff(a, b) -> float:
    """Largest entrywise modulus of ``a - b``; the accuracy metric used throughout."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class LuFactorization:
    """Packed LU factors of a square matrix under row pivoting.

    ``packed_lu`` stores the strictly lower multipliers of L (unit diagonal
    implied) together with U on and above the diagonal.
    ``pivot_permutation`` holds the row permutation as final positions:
    row ``i`` of the permuted matrix is row ``pivot_permutation[i]`` of the
    original, so ``P @ A == L @ U`` with ``(P @ A)[i] = A[pivot_permutation[i]]``.
    """

    n: int
    packed_lu: np.ndarray
    pivot_permutation: np.ndarray


def lu_factor(a) -> LuFactorization:
    """Factor a square complex matrix as ``P @ a = L @ U``.

    Uses right-looking elimination with partial (row) pivoting on the entry
    modulus.  Raises :class:`SingularMatrixError` if the best available
    pivot falls below ``SINGULARITY_THRESHOLD``.
    """
    lu = as_complex_matrix(a)
    n, n_cols = lu.shape
    if n != n_cols:
        raise ValueError(f"matrix must be square, got {lu.shape}")
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < SINGULARITY_THRESHOLD:
            raise SingularMatrixError(
                f"pivot {abs(lu[p, k]):.3e} below threshold at column {k}"
            )
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    lu.setflags(write=False)
    perm.setflags(write=False)
    return LuFactorization(n=n, packed_lu=lu, pivot_permutation=perm)


def lu_solve(fact: LuFactorization, rhs) -> np.ndarray:
    """Solve ``A @ x = rhs`` from the packed factorization of ``A``.

    ``rhs`` is a vector or an ``n x k`` matrix of ``k`` right-hand sides,
    all solved in one sweep.  Forward and back substitution run column by
    column of the factors, which keeps the rounding behaviour of the classic
    triangular kernels.
    """
    x = np.asarray(rhs, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.shape[0] != fact.n:
        raise ValueError(f"right-hand side must be a vector or matrix with {fact.n} rows")
    if not np.isfinite(x).all():
        raise ValueError("right-hand side entries must be finite")
    lu = fact.packed_lu
    n = fact.n
    x = x[fact.pivot_permutation]
    for j in range(n - 1):
        x[j + 1:] -= np.multiply.outer(lu[j + 1:, j], x[j])
    for j in range(n - 1, -1, -1):
        x[j] /= lu[j, j]
        x[:j] -= np.multiply.outer(lu[:j, j], x[j])
    return x
