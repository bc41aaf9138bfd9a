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
``2 / scale`` and ``m`` enter it, so each solve sets up once per element
count and then marches every element from ``psi(0) = I``:

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

Several element counts of one matrix and one basis count, as the studies'
sweeps over elements and minimum-basis searches need (``expm_each``),
share ``a`` and the tables and differ only in the element width, so one
march advances them together.  Their rows sit on a new outermost axis of
the states, of the dense systems and of the pencil's inverses, and each
step is one call for all active rows: one ``einsum``, ``np.linalg.solve``
and end-value product over that axis in the dense solve, and one
``np.matmul`` for each couple, ``a u_k`` and inverse product in the pencil
solve.  The counts go longest first, and a row retires once it has marched
its own count, so the active rows are always a prefix and the march runs
max(E) elements, not their sum.  Every row stays bitwise equal to one
``expm`` call: each stacked call runs the same LAPACK or BLAS kernel per
row.  The one exception is the pencil's (1 x 1)(1 x n^2) complex product of
step m - 1, which ``np.matmul`` rounds differently from ``ndarray.dot``; it
keeps ``ndarray.dot``, with a 0-d weight that scales the rows one by one.

A stretch with one active row, which is all of ``expm``'s single count,
binds that row's 2-D operands and the bound ``ndarray.dot`` calls of the
single-count loop, and only several rows get stacked systems, states and
buffers: the stacked operands cost a single count 1.1-1.2x in ``np.matmul``
dispatch.  So each solve keeps one march, and only the binding differs.
The pencil solve marches its rows in chunks whose working set, state buffer
and embedded inverses, stays within ``CHUNK_BYTES``; a chunk that outgrows
the 2 MiB L2 cache of the machine it was measured on runs slower than one
row at a time (``BENCH_23.json``).  At n = 64 a row alone fills the budget,
so a chunk is one row.

Only ``expm_each``, and through it ``expm``, checks input and decides
overflow, by one rule for both solves (``expm``'s Raises section); the
functions here trust it.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .basis import BasisTables, build_tables, real_form
from .matio import as_complex_matrix

# matrix size from which expm uses the pencil solve (see the module docstring)
PENCIL_MIN_SIZE = 3
# matrix size from which the pencil solve multiplies complex operands, not real forms
COMPLEX_MIN_SIZE = 40
# largest working set, state and embedded inverses, of one chunk of rows that the
# pencil solve marches together (see the module docstring).  Measured over a
# sweep of E = 5..40 at m = 8 (BENCH_23.json): 1 MiB holds 10 rows at n = 16
# and 4 at n = 24, where it beat 256 KiB, 4 MiB and no chunks; it holds 2 rows
# at n = 32 and one at n = 64, where no chunks ran 0.67-0.83x one row at a time
CHUNK_BYTES = 1 << 20


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
    the product sums in ascending order, so nested loops reproduce it bitwise.

    States stacked as (rows, 1, n, n) give one (n*m) x n block per row: their
    unit axis broadcasts against the basis axis.
    """
    n = a.shape[0]
    product = np.einsum("ik,...kj->...ij", a, psi_prev)
    return (load[:, None, None] * product).reshape(psi_prev.shape[:-3] + (-1, n))


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
    (psi,) = expm_each(a, (num_elements,), num_basis)
    return ExpmReport(result=psi, num_elements=operator.index(num_elements),
                      num_basis=operator.index(num_basis))


def expm_each(a, element_counts, num_basis: int = 8) -> list:
    """``exp(a)`` at each of several element counts and one basis count, marched together.

    Returns one fresh n x n result per count, in the order given, each bitwise
    equal to ``expm(a, count, num_basis).result``; the counts need not be
    sorted or distinct.  The rows that share ``a`` and ``num_basis`` advance
    through one march (module docstring), which is what makes the studies'
    element sweeps cheap.  Checks its input and raises exactly as ``expm``
    does, before any solve for bad input; an overflow in any row raises
    ``OverflowError("solution ...")``.
    """
    a = as_complex_matrix(a)
    counts = list(map(operator.index, element_counts))
    if min(counts, default=1) < 1:
        raise ValueError("number of elements must be >= 1")
    tables = build_tables(num_basis)

    # the march keeps its active rows a prefix, so it takes the counts longest first
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    propagate = _pencil_propagate if a.shape[0] >= PENCIL_MIN_SIZE else _dense_propagate
    # no |overlap| entry exceeds overlap[0, 0] = 1.5 pi and no pencil |r[k, k]|
    # exceeds 1.5 (both pinned by tests), so this check covers the dense system,
    # the shifted blocks and the first element's right-hand sides
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(tables.overlap[0, 0] * a).all():
            raise OverflowError("block system overflowed to non-finite values")
        marched = propagate(a, tables, list(map(counts.__getitem__, order)))
    results = [None] * len(counts)
    for row, psi in zip(order, marched):
        if not np.isfinite(psi).all():
            raise OverflowError("solution overflowed to non-finite values")
        results[row] = psi
    return results


def _segments(element_counts):
    """``(rows, elements)`` stretches of a march over counts in descending order.

    All rows start together; after each stretch the last of the ``rows``
    active ones has marched its count and retires, so the active rows are
    always a prefix and the march runs ``max(element_counts)`` elements.
    """
    done = 0
    for rows in range(len(element_counts), 0, -1):
        yield rows, element_counts[rows - 1] - done
        done = element_counts[rows - 1]


def _dense_propagate(a: np.ndarray, tables: BasisTables, element_counts):
    """The dense solve: ``psi`` after each count of elements from the identity,
    for counts in descending order.

    Rows sit on the leading axis of the systems and of the states, which
    stack as (rows, 1, n, n) (``assemble_rhs``); with one active row the
    operands are that row's 2-D views, as for a single count.
    """
    n = a.shape[0]
    # equal elements of width 1/E map onto [-1, 1] with scale 2E; only a march
    # of several rows stacks them
    systems = [assemble_system(a, 2.0 * count, tables) for count in element_counts]
    psi = np.eye(n, dtype=np.complex128)
    stacked = len(systems) > 1
    if stacked:
        systems = np.stack(systems)
        psi = np.repeat(psi[None, None], len(systems), axis=0)
    results = []
    for rows, elements in _segments(element_counts):
        # as (column, basis, row): one contiguous (m, n) block per column, evaluated at +1
        if rows == 1:
            psi, system, blocks = psi[0, 0] if stacked else psi, systems[0], (tables.m, n, n)
            to_columns, to_rows = (2, 0, 1), (1, 0)
        else:
            psi, system, blocks = psi[:rows], systems[:rows], (rows, 1, tables.m, n, n)
            to_columns, to_rows = (0, 1, 4, 2, 3), (0, 1, 3, 2)
        for _ in range(elements):
            coeffs = np.linalg.solve(system, assemble_rhs(a, psi, tables.load))
            # this summation order is pinned: the flat sum end_vals @ coeffs.reshape(m, n * n)
            # changes at least one bit for 45% of random n <= 2 coefficients (m = 1..40),
            # and with it table1 m1's E = 5 row (10 -> 11) and the README's m1 digits,
            # which tests pin byte for byte
            per_col = np.ascontiguousarray(coeffs.reshape(blocks).transpose(to_columns))
            psi = psi + (tables.end_vals @ per_col).transpose(to_rows)
        # the last active row has marched its count; a stretch of no elements
        # leaves it a view of the stack, which the result must not be
        last = psi if rows == 1 else psi[rows - 1, 0]
        results.append(last if rows == 1 and elements else last.copy())
    return results[::-1]


def _pencil_propagate(a: np.ndarray, tables: BasisTables, element_counts):
    """The pencil solve: ``psi`` after each count of elements from the identity,
    for counts in descending order.

    Per row, a work buffer stacks ``[Y[0] ... Y[m - 1], psi]``; coupling row
    ``k < m`` forms ``u_k`` from it and row ``m`` the end state, which
    replaces ``psi``.  Set-up picks the operands by n alone, and the loop is
    the same for both.  Below ``COMPLEX_MIN_SIZE`` the buffer holds each
    block as the stacked real ``[Re Y[k]; Im Y[k]]`` in ``p = 2`` of its
    rows, and ``a``, the inverses and the coupling are bound in real form,
    so that each product is one real BLAS call (the module docstring says
    why).  From it every operand is complex and each block takes ``p = 1``
    row.  Rows sit on the leading axis of the buffers and inverses, and
    march in chunks of at most ``CHUNK_BYTES`` of working set.
    """
    n = a.shape[0]
    m = tables.m
    if n < COMPLEX_MIN_SIZE:
        p, coupling, a_form = 2, tables.pencil_real, real_form(a)
    else:
        p, coupling, a_form = 1, tables.pencil, a
    # a row's state and embedded inverses
    row_bytes = coupling.itemsize * (p * (m + 1) * n * n + m * (p * n) ** 2)
    chunk = max(1, CHUNK_BYTES // row_bytes)
    results = []
    for start in range(0, len(element_counts), chunk):
        results += _pencil_chunk(a, a_form, p, coupling, tables, element_counts[start:start + chunk])
    return results


def _pencil_chunk(a, a_form, p, coupling, tables, counts):
    """The march of one chunk of rows, as ``_pencil_propagate`` sets it up.

    Its buffers are freed when it returns, before the next chunk allocates
    its own: one row at a time then reuses the same memory, as one ``expm``
    call after another does.
    """
    n = a.shape[0]
    m = tables.m
    # the diagonal blocks of the triangularised system, one per basis step
    # and row, inverted as complex matrices; they stack as (rows m, n, n),
    # as numpy's inv takes about a tenth longer with a leading axis more
    shifted = -tables.pencil.diagonal()[:m, None, None] * a
    if len(counts) > 1:
        shifted = np.concatenate([shifted] * len(counts))
    diagonals = shifted.reshape(len(counts), m, n * n)[:, :, :: n + 1]
    for row, count in enumerate(counts):
        diagonals[row] += 2.0 * count
    inverse = np.linalg.inv(shifted)
    # freed before the embedding below, which lowers the set-up's peak memory
    del shifted
    if p == 2:
        inverse = real_form(inverse)
    # a chunk of one row keeps a single count's 2-D buffers; several rows
    # stack on a leading axis
    lead = (len(counts),) if len(counts) > 1 else ()
    inverse = inverse.reshape(lead + (m, p * n, p * n))
    state = np.zeros(lead + (p * (m + 1), n * n), dtype=coupling.dtype)
    blocks = state.reshape(lead + (m + 1, p * n, n))
    # psi = I: ones on the diagonal of the flattened (real part of the) state
    state[..., p * m, :: n + 1] = 1.0
    u_rows = np.empty(lead + (p, n * n), dtype=coupling.dtype)
    rhs = np.empty(lead + (p * n, n), dtype=coupling.dtype)
    finished = []
    for rows, elements in _segments(counts):
        # each stretch binds one call per product for all its active rows
        if rows == 1:
            # a single row's 2-D operands: ndarray.dot bound once skips np.dot's
            # dispatch, dearer than the arithmetic at small n; every output is
            # C-contiguous and aliases no input
            row_state, row_u, row_rhs, row_inverse, row_blocks = (
                (state[0], u_rows[0], rhs[0], inverse[0], blocks[0]) if lead
                else (state, u_rows, rhs, inverse, blocks))
            back_substitution = [
                (coupling[p * k:p * k + p, p * k + p:].dot, row_state[p * k + p:], row_u,
                 row_inverse[k].dot, row_blocks[k])
                for k in range(m - 1, -1, -1)
            ]
            times_a, end_combine = a_form.dot, coupling[p * m:].dot
        else:
            row_state, row_u, row_rhs = state[:rows], u_rows[:rows], rhs[:rows]
            back_substitution = [
                (functools.partial(np.matmul, coupling[p * k:p * k + p, p * k + p:]),
                 row_state[:, p * k + p:], row_u,
                 functools.partial(np.matmul, inverse[:rows, k]), blocks[:rows, k])
                for k in range(m - 1, -1, -1)
            ]
            if p == 1:
                # np.matmul rounds the (1 x 1)(1 x n^2) complex product of step
                # m - 1 unlike ndarray.dot, which scales row by row by a 0-d weight
                back_substitution[0] = (coupling[m - 1:m, m:].reshape(()).dot,
                                        row_state[:, m], row_u[:, 0], *back_substitution[0][3:])
            times_a = functools.partial(np.matmul, a_form)
            end_combine = functools.partial(np.matmul, coupling[p * m:])
        u_k, end_state = row_u.reshape(row_rhs.shape), row_state[..., p * m:, :]
        for _ in range(elements):
            for couple, tail, out, solve, y_k in back_substitution:
                couple(tail, out=out)
                times_a(u_k, out=row_rhs)
                solve(row_rhs, out=y_k)
            end_combine(row_state, out=row_u)
            end_state[...] = row_u
        # the last active row has marched its count
        last = blocks[rows - 1, m] if lead else blocks[m]
        if p == 1:
            finished.append(last.copy())
        else:
            psi = np.empty((n, n), dtype=np.complex128)
            psi.real = last[:n]
            psi.imag = last[n:]
            finished.append(psi)
    return finished[::-1]
