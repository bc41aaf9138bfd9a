"""Element-by-element propagation that turns exponentiation into an IVP.

``psi(t) = exp(a t)`` solves ``d(psi)/dt = a @ psi``, ``psi(0) = I``, so
``exp(a)`` is its value at the end of a unit artificial-time interval split
into equal elements.  On each element every column of ``psi`` is its
left-edge value plus an integrated-Chebyshev expansion, so it stays
continuous.  A weighted Galerkin projection couples the ``m`` coefficients of
the ``n`` rows of each column into a block system, laid out basis-major
(row ``mu * n + i`` is basis function ``mu``, matrix row ``i``):

    (scale * kron(deriv, I_n) - kron(overlap, a)) @ coeffs
        = kron(load[:, None], a @ psi_prev)

or ``scale deriv X - overlap (a X) = load (a psi_prev)`` for the (m, n) stack
``X`` of n x n coefficient blocks.  Only ``a``, the element width
``2 / scale`` and ``m`` enter it, so each solve sets up once per call and
then marches every element from ``psi(0) = I``:

* ``n <= 2``, the dense solve: the (n m) x (n m) matrix is assembled once,
  and each element solves it for all ``n`` columns with one LAPACK call.
* ``n >= 3``, the pencil solve: ``load`` is the first column of ``deriv``, so
  ``deriv^-1`` turns the system into ``scale X - T (a X) = e_0 (a psi_prev)``,
  ``T = deriv^-1 overlap``.  Its Schur form ``T = u r u^H`` makes it block
  upper triangular in ``Y = u^H X`` (Bartels and Stewart, 1972): each element
  solves ``(scale I - r[k, k] a) Y[k] = a u_k`` for ``k = m - 1`` down to 0,
  where ``u_k`` combines ``psi_prev`` and the ``Y[j]`` already solved, and its
  end value is one more such combination.  All these combinations are rows of
  one coupling matrix ``[[r, load'], [end', 1]]`` (``BasisTables.pencil``).
  The shifted blocks are inverted once per call, so an element costs
  O(m n^3), not O((n m)^3).

The switch sits at n = 3, and not for speed alone: the dense solve is faster
at n = 1 and at n = 2 with one element, the pencil solve about 1.1x faster at
n = 2 with 8 and 1.2x slower at n = 3, m = 8 with one (ROADMAP and
``BENCH_20.json``).  The two agree to rounding, but at n = 2 the pencil solve
moves the E = 5 row of ``table1 m1`` from 10 basis functions to 9, as its
m = 9 error, 1.07e-14, sits on the 1e-14 tolerance.  The tests and the
benchmark's gate pin that row, so n <= 2, which holds every ``table1``
matrix, keeps the dense solve.  The row moves with any change to the dense
solve's rounding: to 9 through the pencil solve, to 11 when the end values
are one flat sum over all columns instead of one sum per column.

Below n = 40 (``COMPLEX_MIN_SIZE``) the pencil solve multiplies real forms.
There a complex product costs more in call overhead than in arithmetic, and
one real BLAS call on the same product's real form costs a third to a half
as much.  The complex ``Z = X + iY`` becomes ``[[X, -Y], [Y, X]]``
(``basis.real_form``), each block ``Y[k]`` the stacked ``[Re Y[k]; Im Y[k]]``
and each coupling entry a 2 x 2 real block (``BasisTables.pencil_real``).
That is the conventional complex product as four real ones, so it keeps its
error bound, which the three-multiplication form does not (Higham, SIMAX
1992).  The shifted blocks are still inverted as complex matrices and only
then embedded.  From n = 40 the embedding's set-up copies and the larger
real products cost more than they save, and at n = 64 complex ``zgemm`` beats
every real variant, so the same loop runs on complex operands.

Only ``expm`` checks input and decides overflow, by one rule for both solves
(its Raises section); the functions here trust it.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .basis import BasisTables, build_tables, real_form
from .matio import as_complex_matrix

# matrix size from which expm uses the pencil solve (see the module docstring)
PENCIL_MIN_SIZE = 3
# matrix size from which the pencil solve multiplies complex operands, not real forms
COMPLEX_MIN_SIZE = 40


@dataclass(frozen=True, eq=False)
class ExpmReport:
    """Result of a full propagation and the element and basis counts that produced it."""

    result: np.ndarray
    num_elements: int
    num_basis: int


def assemble_system(a: np.ndarray, scale: float, tables: BasisTables) -> np.ndarray:
    """The (n*m) x (n*m) block system ``scale kron(deriv, I_n) - kron(overlap, a)``,
    entry (mu', i), (mu, k) being ``scale deriv[mu', mu] (i == k) - overlap[mu', mu] a[i, k]``."""
    n = a.shape[0]
    eye = np.eye(n)
    system = ((scale * tables.deriv)[:, None, :, None] * eye[None, :, None, :]
              - tables.overlap[:, None, :, None] * a[None, :, None, :])
    return system.reshape(n * tables.m, n * tables.m)


def assemble_rhs(a: np.ndarray, psi_prev: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Right-hand sides ``load[mu'] * (a @ psi_prev)[i, j]`` at row (mu', i), column j;
    the product sums in ascending order, so nested loops reproduce it bitwise."""
    n = a.shape[0]
    return (load[:, None, None] * np.einsum("ik,kj->ij", a, psi_prev)).reshape(-1, n)


def expm(a, num_elements: int = 8, num_basis: int = 8) -> ExpmReport:
    """Exponential of a square complex matrix by element-wise propagation.

    The solves are described in the module docstring.  The defaults reach
    about 13 digits only for small ``norm(a, 1)``; the error grows fast with it
    (figures in the README), and ``num_elements >= 4 norm(a, 1)`` keeps it low.

    Parameters
    ----------
    a : array_like
        Square matrix with finite entries, real or complex.
    num_elements, num_basis : int
        Number of equal time elements covering the unit interval, and of
        integrated-Chebyshev basis functions per element.

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
        Checked twice, by the same rules for every n.  Before either solve
        starts ("block system"), if ``1.5 pi a`` is not finite: ``1.5 pi``
        is the largest table entry, so that is when the block system
        overflows, and it covers the pencil's shifted blocks too.  After the
        last element ("solution"), if the state is not finite; it stays so
        once an overflow inside an element reaches it: the dense solve adds to
        it, and the pencil's end row has coefficient exactly 1 on it.
    numpy.linalg.LinAlgError
        At set-up, if the block system or (n >= 3) a shifted block
        ``scale I - r[k, k] a`` is exactly singular: the element width times
        an eigenvalue of ``a`` hits a pole of the element map (for example
        ``expm([[4.0]], 3, 1)``).
    """
    a = as_complex_matrix(a)
    num_elements = operator.index(num_elements)
    if num_elements < 1:
        raise ValueError("number of elements must be >= 1")
    tables = build_tables(num_basis)

    # equal elements of width 1/E map onto [-1, 1] with scale 2E
    scale = 2.0 * num_elements
    propagate = _pencil_propagate if a.shape[0] >= PENCIL_MIN_SIZE else _dense_propagate
    # no |overlap| entry exceeds overlap[0, 0] = 1.5 pi and no pencil |r[k, k]|
    # exceeds 1.5 (both pinned by tests), so this check covers the dense system,
    # the shifted blocks and the first element's right-hand sides
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(tables.overlap[0, 0] * a).all():
            raise OverflowError("block system overflowed to non-finite values")
        psi = propagate(a, scale, tables, num_elements)
    if not np.isfinite(psi).all():
        raise OverflowError("solution overflowed to non-finite values")
    return ExpmReport(result=psi, num_elements=num_elements, num_basis=tables.m)


def _dense_propagate(a: np.ndarray, scale: float, tables: BasisTables, num_elements: int):
    """The dense solve: ``psi`` after ``num_elements`` elements from the identity."""
    n = a.shape[0]
    system = assemble_system(a, scale, tables)
    psi = np.eye(n, dtype=np.complex128)
    for _ in range(num_elements):
        coeffs = np.linalg.solve(system, assemble_rhs(a, psi, tables.load))
        # as (column, basis, row): one contiguous (m, n) block per column, evaluated at +1;
        # this summation order is pinned: the flat sum end_vals @ coeffs.reshape(m, n * n)
        # changes at least one bit for 45% of random n <= 2 coefficients (m = 1..40),
        # and with it table1 m1's E = 5 row (10 -> 11) and the README's m1 digits,
        # which tests pin byte for byte
        per_col = np.ascontiguousarray(coeffs.reshape(tables.m, n, n).transpose(2, 0, 1))
        psi = psi + (tables.end_vals @ per_col).T
    return psi


def _pencil_propagate(a: np.ndarray, scale: float, tables: BasisTables, num_elements: int):
    """The pencil solve: ``psi`` after ``num_elements`` elements from the identity.

    A work buffer stacks ``[Y[0] ... Y[m - 1], psi]``; coupling row ``k < m``
    forms ``u_k`` from it and row ``m`` the end state, which replaces ``psi``.
    Set-up picks the operands by n alone, and the loop is the same for both.
    Below ``COMPLEX_MIN_SIZE`` the buffer holds each block as the stacked real
    ``[Re Y[k]; Im Y[k]]`` in ``p = 2`` of its rows, and ``a``, the inverses
    and the coupling are bound in real form, so that each product is one
    real BLAS call (the module docstring says why).  From it every operand
    is complex and each block takes ``p = 1`` row.
    """
    n = a.shape[0]
    m = tables.m
    # the diagonal blocks of the triangularised system, one per basis step,
    # inverted as complex matrices
    shifted = -tables.pencil.diagonal()[:m, None, None] * a
    shifted.reshape(m, n * n)[:, :: n + 1] += scale
    inverse = np.linalg.inv(shifted)
    # freed before the embedding below, which lowers the set-up's peak memory
    del shifted
    if n < COMPLEX_MIN_SIZE:
        p, coupling, a, inverse = 2, tables.pencil_real, real_form(a), real_form(inverse)
    else:
        p, coupling = 1, tables.pencil
    state = np.zeros((p * (m + 1), n * n), dtype=coupling.dtype)
    blocks = state.reshape(m + 1, p * n, n)
    # psi = I: ones on the diagonal of the flattened (real part of the) state
    state[p * m, :: n + 1] = 1.0
    u_rows = np.empty((p, n * n), dtype=coupling.dtype)
    u_k = u_rows.reshape(p * n, n)
    rhs = np.empty((p * n, n), dtype=coupling.dtype)
    # ndarray.dot bound once skips np.dot's dispatch, dearer than the arithmetic
    # at small n; every output is C-contiguous and aliases no input
    times_a = a.dot
    end_combine = coupling[p * m:].dot
    back_substitution = [
        (coupling[p * k:p * k + p, p * k + p:].dot, state[p * k + p:], inverse[k].dot, blocks[k])
        for k in range(m - 1, -1, -1)
    ]
    for _ in range(num_elements):
        for couple, tail, solve, y_k in back_substitution:
            couple(tail, out=u_rows)
            times_a(u_k, out=rhs)
            solve(rhs, out=y_k)
        end_combine(state, out=u_rows)
        state[p * m:] = u_rows
    if p == 1:
        return blocks[m].copy()
    psi = np.empty((n, n), dtype=np.complex128)
    psi.real = blocks[m, :n]
    psi.imag = blocks[m, n:]
    return psi
