"""Element-by-element propagation that turns exponentiation into an IVP.

For a square matrix ``a``, the matrix function ``psi(t) = exp(a t)`` solves
``d(psi)/dt = a @ psi`` with ``psi(0) = I``, so ``exp(a)`` is reached by
integrating over an artificial unit time interval.  The interval is split
into equal elements; on each element every column of ``psi`` is expanded in
the integrated-Chebyshev basis on top of its value at the element's left
edge, which keeps the solution continuous across elements for free.

A weighted Galerkin projection of the differential equation couples the
``m`` basis coefficients of the ``n`` rows of each column into the block
system

    (scale * kron(deriv, I_n) - kron(overlap, a)) @ coeffs
        = kron(load[:, None], a @ psi_prev)

laid out basis-major: composite row index ``mu * n + i`` addresses basis
function ``mu``, matrix row ``i``, and column ``j`` of ``coeffs`` belongs to
column ``j`` of ``psi``.  The system matrix depends only on ``a``, the
element width ``2 / scale`` and ``m``, so ``expm`` assembles it once, then
runs one loop over the elements: each assembles its right-hand side, solves
for all ``n`` columns with one LAPACK call (``numpy.linalg.solve``) and adds
the expansion's end value to ``psi``.  Elements are inherently sequential,
each consuming the previous element's end value.  A right-hand side or state
that overflows to non-finite values raises ``OverflowError``; an exactly
singular block system raises ``numpy.linalg.LinAlgError``.

``expm`` is the one place that checks input: it converts ``a`` once and
checks its shape and the counts.  The assembly kernels take those checked
arrays as they are and check nothing again.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .basis import BasisTables, build_tables
from .dense import as_complex_matrix


@dataclass(frozen=True)
class ExpmReport:
    """Result of a full propagation and the element and basis counts that produced it."""

    result: np.ndarray
    num_elements: int
    num_basis: int


def assemble_system(a: np.ndarray, scale: float, tables: BasisTables) -> np.ndarray:
    """Assemble the (n*m) x (n*m) block system matrix for one element.

    Block entry (mu', i), (mu, k) is
    ``scale * deriv[mu', mu] * (i == k) - a[i, k] * overlap[mu', mu]``.
    """
    n = a.shape[0]
    diag = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # (mu', i, mu, k) layout; the i == k entries are written whole so
        # each is the same one subtraction as in the Kronecker form
        system = -(tables.overlap[:, None, :, None] * a[None, :, None, :])
        on_diag = scale * tables.deriv - tables.overlap * np.diagonal(a)[:, None, None]
        system[:, diag, :, diag] = on_diag
    system = system.reshape(n * tables.m, n * tables.m)
    if not np.isfinite(system).all():
        raise OverflowError("block system overflowed to non-finite values")
    return system


def assemble_rhs(a: np.ndarray, psi_prev: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Right-hand sides of the block system, one column per column of ``psi_prev``.

    Entry at composite row (mu', i), column j is
    ``load[mu'] * (a @ psi_prev)[i, j]``.  The matrix product accumulates in
    plain ascending order so the result is reproducible entry for entry by a
    nested-loop construction.
    """
    n = a.shape[0]
    return (load[:, None, None] * np.einsum("ik,kj->ij", a, psi_prev)).reshape(-1, n)


def expm(a, num_elements: int = 8, num_basis: int = 8) -> ExpmReport:
    """Exponential of a square complex matrix by element-wise propagation.

    Parameters
    ----------
    a : array_like
        Square matrix with finite entries, real or complex.
    num_elements : int
        Number of equal time elements covering the unit interval.
    num_basis : int
        Number of integrated-Chebyshev basis functions per element.

    Returns
    -------
    ExpmReport
        The n x n exponential at t = 1 with the element and basis counts used.

    Raises
    ------
    ValueError
        If ``a`` is not a non-empty square finite matrix or a count is below 1.
    TypeError
        If a count is not an integer.
    OverflowError
        If the block system, a right-hand side or the state overflows.
    numpy.linalg.LinAlgError
        If the block system is exactly singular, which happens when the
        element width times an eigenvalue of ``a`` hits a pole of the
        element map (for example ``expm([[4.0]], 3, 1)``).

    The defaults reproduce the method's reference accuracy on
    well-scaled matrices (about 13 significant digits).
    """
    a = as_complex_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n or n == 0:
        raise ValueError(f"matrix must be square and non-empty, got {a.shape}")
    num_elements = operator.index(num_elements)
    if num_elements < 1:
        raise ValueError("number of elements must be >= 1")

    tables = build_tables(num_basis)
    # equal elements of width 1/E map onto [-1, 1] with scale 2E; with a
    # constant matrix one system matrix serves all elements
    system = assemble_system(a, 2.0 * num_elements, tables)
    psi = np.eye(n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(num_elements):
            rhs = assemble_rhs(a, psi, tables.load)
            if not np.isfinite(rhs).all():
                raise OverflowError("right-hand side overflowed to non-finite values")
            coeffs = np.linalg.solve(system, rhs)
            # coefficients regrouped as (column, basis, row): one contiguous
            # (m, n) block per column, evaluated at local time +1
            per_col = np.ascontiguousarray(coeffs.reshape(tables.m, n, n).transpose(2, 0, 1))
            psi = psi + (tables.end_vals @ per_col).T
            if not np.isfinite(psi).all():
                raise OverflowError("solution overflowed to non-finite values")
    return ExpmReport(result=psi, num_elements=num_elements, num_basis=tables.m)
