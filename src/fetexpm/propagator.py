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

``expm`` picks by ``n`` one of two propagate functions, each of which
starts from ``psi(0) = I`` and marches all elements.  The system depends only
on ``a``, the element width ``2 / scale`` and ``m``, so each builds its part
once and reuses it on every element:

* ``n <= 2``, the dense solve: the (n*m) x (n*m) system matrix is assembled
  once, then each element assembles its right-hand side, solves for all
  ``n`` columns with one LAPACK call (``numpy.linalg.solve``) and adds the
  coefficients' end values to ``psi_prev``.
* ``n >= 3``, the pencil solve: ``load`` is the first column of ``deriv``,
  so multiplying by ``deriv^-1`` gives ``scale * X - T (a X) = e_0 (a psi_prev)``
  with ``T = deriv^-1 overlap``.  Its Schur form ``T = u r u^H``
  (``BasisTables.pencil``) makes the system block upper triangular in
  ``Y = u^H X`` (Bartels and Stewart, 1972), so each element
  back-substitutes from ``k = m - 1`` down to 0 through the shifted n x n
  blocks ``(scale I - r[k, k] a) Y[k] = a u_k``, where ``u_k`` combines
  ``psi_prev`` and the ``Y[j]`` already solved.  The end value is one more
  such combination, ``psi_prev + (u^T end_vals) @ Y``: the last row of the
  coupling matrix that forms every ``u_k``, built once per m with the Schur
  form.  The m shifted blocks are inverted once per call, so an element is
  2m matrix products and m + 1 row combinations, O(m n^3) instead of
  O((n m)^3), and its state stays in two work buffers.

The switch sits where the pencil solve overtakes the dense one: at n = 2
one LAPACK call per element costs less than m Python-level steps, and from
n = 3 the pencil solve ties or wins (timings are in ROADMAP and the
``BENCH_*.json`` files).  The two solves agree to rounding.

Elements are inherently sequential, each consuming the previous element's
end value.  Overflow is checked once per phase and raises ``OverflowError``:
at set-up, the block system ("block system"), and after the last element,
the state ("solution").  IEEE arithmetic carries inf and NaN forward, so an
overflow anywhere inside an element shows in its end value, and a
non-finite state stays non-finite: the dense solve adds to ``psi_prev`` and
the pencil solve's end row has coefficient exactly 1 on it.  The pencil
solve's set-up check runs before it inverts.  An exactly singular block
system (dense) or shifted block (pencil) raises
``numpy.linalg.LinAlgError``.

``expm`` is the one place that checks input: it converts ``a`` once, which
checks its shape, and checks the counts.  The propagate functions and
assembly kernels take those checked arrays as they are and check nothing
again.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .basis import BasisTables, build_tables
from .dense import as_complex_matrix

# matrix size from which expm uses the pencil solve (see the module docstring)
PENCIL_MIN_SIZE = 3


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
        state is not finite after the last element ("solution"), which is
        checked once since a non-finite state stays so.  For n >= 3 the set-up
        check runs before the shifted blocks are inverted, so an input that
        overflows raises this even when a block is singular to working
        precision.
    numpy.linalg.LinAlgError
        If the block system (or, for n >= 3, one of the shifted diagonal
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
    propagate = _pencil_propagate if a.shape[0] >= PENCIL_MIN_SIZE else _dense_propagate
    psi = propagate(a, scale, tables, num_elements)
    if not np.isfinite(psi).all():
        raise OverflowError("solution overflowed to non-finite values")
    return ExpmReport(result=psi, num_elements=num_elements, num_basis=tables.m)


def _dense_propagate(a: np.ndarray, scale: float, tables: BasisTables, num_elements: int):
    """The dense solve: ``psi`` after ``num_elements`` elements from the identity.

    One system matrix serves all elements, since ``a`` is constant; each
    element solves it for all ``n`` columns with one LAPACK call.
    """
    n = a.shape[0]
    system = assemble_system(a, scale, tables)
    psi = np.eye(n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(num_elements):
            coeffs = np.linalg.solve(system, assemble_rhs(a, psi, tables.load))
            # coefficients regrouped as (column, basis, row): one contiguous
            # (m, n) block per column, evaluated at local time +1
            per_col = np.ascontiguousarray(coeffs.reshape(tables.m, n, n).transpose(2, 0, 1))
            psi = psi + (tables.end_vals @ per_col).T
    return psi


def _pencil_propagate(a: np.ndarray, scale: float, tables: BasisTables, num_elements: int):
    """The pencil solve: ``psi`` after ``num_elements`` elements from the identity.

    The stacked rows ``[Y[0] ... Y[m - 1], psi]`` of a work buffer, each an
    n x n block flattened, are combined by the rows of the (m + 1) x (m + 1)
    coupling matrix ``[[r, load'], [end', 1]]`` (``PencilSchur.coupling``).
    Step ``k`` solves ``(scale I - r[k, k] a) Y[k] = a u_k``, where row ``k``
    gives ``u_k = load'[k] psi + sum over j > k of r[k, j] Y[j]``, and row
    ``m`` gives the end state ``psi + end' Y``.  The shifted blocks are the
    same on every element, so they are inverted once; an element is then 2m
    matrix products and m + 1 row combinations.  The two work buffers
    alternate by element parity: element ``e`` reads its start state from
    buffer ``e % 2`` and writes its end state into the other.
    """
    n = a.shape[0]
    m = tables.m
    coupling = tables.pencil.coupling
    diag = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # the diagonal blocks of the triangularised system, one per basis step
        shifted = np.multiply.outer(-np.diagonal(tables.pencil.r), a)
        shifted[:, diag, diag] += scale
        # the first element's right-hand sides are load[k] a, since a @ I is
        # a exactly.  load is real with max |load| = load[0] = pi, so load[0] a
        # is finite exactly when all of them are; and every |r[k, k]| is at
        # most 1.5 (at m = 1, smaller for larger m), so even a complex
        # product's parts stay below pi max(|Re a|, |Im a|): when this is
        # finite, so are the blocks.  Checked before inverting, an input
        # that overflows is reported as such even when a block is singular
        # to working precision
        first_rhs = tables.load[0] * a
    if not np.isfinite(first_rhs).all():
        raise OverflowError("block system overflowed to non-finite values")
    inverse = np.linalg.inv(shifted)
    # the hot calls are ndarray.dot bound once here: the same BLAS call as
    # np.dot without its dispatch, which at small n costs more than the
    # arithmetic.  Every operand is C-contiguous complex128, and no output
    # aliases an input
    couples = [coupling[k, k + 1:].dot for k in range(m)]
    solves = [block.dot for block in inverse]
    times_a = a.dot
    end_combine = coupling[m].dot
    work = np.empty((2, m + 1, n * n), dtype=np.complex128)
    blocks = work.reshape(2, m + 1, n, n)
    blocks[0, m] = np.eye(n)
    u_rows = np.empty(n * n, dtype=np.complex128)
    u_k = u_rows.reshape(n, n)
    rhs = np.empty((n, n), dtype=np.complex128)
    # per buffer: its steps k = m - 1 down to 0, its rows and the other buffer's state row
    plans = [
        ([(couples[k], rows[k + 1:], solves[k], blocks[p, k]) for k in range(m - 1, -1, -1)],
         rows, work[1 - p, m])
        for p, rows in enumerate(work)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(num_elements):
            back_substitution, rows, end_rows = plans[e & 1]
            for couple, tail, solve, y_k in back_substitution:
                couple(tail, out=u_rows)
                times_a(u_k, out=rhs)
                solve(rhs, out=y_k)
            end_combine(rows, out=end_rows)
    return blocks[num_elements & 1, m].copy()
