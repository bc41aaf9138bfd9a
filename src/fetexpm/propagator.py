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
column ``j`` of ``psi``.  Written with the coefficients as an (m, n) stack
``X`` of n x n blocks, this is the generalized Sylvester equation
``scale * deriv @ X - overlap @ (a X) = load (a psi_prev)``.

``expm`` runs the one element loop, ``psi = psi + increment(psi)``, and
picks by ``n`` the solver that builds ``increment``.  The system depends
only on ``a``, the element width ``2 / scale`` and ``m``, so each solver
builds its part once and reuses it on every element:

* ``n < 6``, the dense solve: the (n*m) x (n*m) system matrix is assembled
  once, then each element assembles its right-hand side and solves for all
  ``n`` columns with one LAPACK call (``numpy.linalg.solve``).
* ``n >= 6``, the pencil solve: ``load`` is the first column of ``deriv``,
  so multiplying by ``deriv^-1`` gives ``scale * X - T (a X) = e_0 (a psi_prev)``
  with ``T = deriv^-1 overlap``.  Its Schur form ``T = u r u^H``
  (``BasisTables.pencil``) makes the system block upper triangular in
  ``Y = u^H X`` (Bartels and Stewart, 1972), so each element
  back-substitutes from ``k = m - 1`` down to 0 through the shifted n x n
  blocks ``(scale I - r[k, k] a) Y[k] = a u_k``, where ``u_k`` combines
  ``psi_prev`` and the ``Y[j]`` already solved; the end value is
  ``(u^T end_vals) @ Y``.  The m shifted blocks are inverted once per call,
  so each step is two matrix products.  That is O(m n^3) per element
  instead of O((n m)^3).

The switch sits where the pencil solve overtakes the dense one at the
default m=8: below n=6 one LAPACK call per element costs less than m
Python-level steps (timings are in ROADMAP and the ``BENCH_*.json``
files).  The two solves agree to rounding.

Elements are inherently sequential, each consuming the previous element's
end value.  Overflow is checked once per phase and raises ``OverflowError``:
at set-up, the block system ("block system"), and after each element, the
state ("solution").  IEEE arithmetic carries inf and NaN forward, so an
overflow anywhere inside an element shows in its end value.  The pencil
solve's set-up check runs before it inverts.  An exactly singular block
system (dense) or shifted block (pencil) raises
``numpy.linalg.LinAlgError``.

``expm`` is the one place that checks input: it converts ``a`` once, which
checks its shape, and checks the counts.  The solvers and assembly kernels
take those checked arrays as they are and check nothing again.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .basis import BasisTables, build_tables
from .dense import as_complex_matrix

# matrix size from which expm uses the pencil solve (see the module docstring)
PENCIL_MIN_SIZE = 6


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
        If the block system overflows at set-up ("block system") or the
        state does after an element ("solution").  For n >= 6 the set-up
        check runs before the shifted blocks are inverted, so an input that
        overflows raises this even when a block is singular to working
        precision.
    numpy.linalg.LinAlgError
        If the block system (or, for n >= 6, one of the shifted diagonal
        blocks ``scale I - r[k, k] a`` of its Schur form) is exactly
        singular, which happens when the element width times an eigenvalue
        of ``a`` hits a pole of the element map (for example
        ``expm([[4.0]], 3, 1)``).  The shifted blocks are inverted once per
        call, before the first element, so this is raised before any
        element is propagated.

    The defaults reproduce the method's reference accuracy on
    well-scaled matrices (about 13 significant digits).
    """
    a = as_complex_matrix(a)
    num_elements = operator.index(num_elements)
    if num_elements < 1:
        raise ValueError("number of elements must be >= 1")
    tables = build_tables(num_basis)

    # equal elements of width 1/E map onto [-1, 1] with scale 2E
    scale = 2.0 * num_elements
    solver = _pencil_solver if a.shape[0] >= PENCIL_MIN_SIZE else _dense_solver
    increment = solver(a, scale, tables)
    psi = np.eye(a.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(num_elements):
            psi = psi + increment(psi)
            if not np.isfinite(psi).all():
                raise OverflowError("solution overflowed to non-finite values")
    return ExpmReport(result=psi, num_elements=num_elements, num_basis=tables.m)


def _dense_solver(a: np.ndarray, scale: float, tables: BasisTables):
    """The dense solve: a function from an element's start state to its increment.

    One system matrix serves all elements, since ``a`` is constant; each
    element solves it for all ``n`` columns with one LAPACK call.
    """
    n = a.shape[0]
    system = assemble_system(a, scale, tables)

    def increment(psi: np.ndarray) -> np.ndarray:
        coeffs = np.linalg.solve(system, assemble_rhs(a, psi, tables.load))
        # coefficients regrouped as (column, basis, row): one contiguous
        # (m, n) block per column, evaluated at local time +1
        per_col = np.ascontiguousarray(coeffs.reshape(tables.m, n, n).transpose(2, 0, 1))
        return (tables.end_vals @ per_col).T

    return increment


def _pencil_solver(a: np.ndarray, scale: float, tables: BasisTables):
    """The pencil solve: a function from an element's start state to its increment.

    Step ``k`` solves ``(scale I - r[k, k] a) Y[k] = a u_k`` with
    ``u_k = load'[k] psi + sum over j > k of r[k, j] Y[j]`` and the
    transformed ``load' = conj(u[0, :])``; the increment is
    ``(u^T end_vals) @ Y``.  The shifted blocks are the same on every
    element, so they are inverted once, and each step is two products.
    """
    n = a.shape[0]
    m = tables.m
    pencil = tables.pencil
    diag = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # the diagonal blocks of the triangularised system, one per basis step
        shifted = np.multiply.outer(-np.diagonal(pencil.r), a)
        shifted[:, diag, diag] += scale
        # the first element's right-hand side, since a @ I is a exactly.
        # load is real with max |load| = load[0] = pi, and every |r[k, k]|
        # is at most 1.5 (at m = 1, smaller for larger m), so even a complex
        # product's parts stay below pi max(|Re a|, |Im a|): when this is
        # finite, so are the blocks.  Checked before inverting, an input
        # that overflows is reported as such even when a block is singular
        # to working precision
        first_rhs = np.multiply.outer(tables.load, a)
    if not np.isfinite(first_rhs).all():
        raise OverflowError("block system overflowed to non-finite values")
    inverse = np.linalg.inv(shifted)
    # row k couples step k to the steps solved after it and to psi, the
    # last of the stacked rows [Y[0] ... Y[m - 1], psi] below
    coupling = np.concatenate((pencil.r, pencil.load[:, None]), axis=1)
    stacked = np.empty((m + 1, n, n), dtype=np.complex128)
    stacked_rows = stacked.reshape(m + 1, n * n)
    u_rows = np.empty(n * n, dtype=np.complex128)
    u_k = u_rows.reshape(n, n)
    rhs = np.empty((n, n), dtype=np.complex128)

    def increment(psi: np.ndarray) -> np.ndarray:
        stacked[m] = psi
        for k in range(m - 1, -1, -1):
            np.matmul(coupling[k, k + 1:], stacked_rows[k + 1:], out=u_rows)
            np.matmul(a, u_k, out=rhs)
            np.matmul(inverse[k], rhs, out=stacked[k])
        return (pencil.end_vals @ stacked_rows[:m]).reshape(n, n)

    return increment
