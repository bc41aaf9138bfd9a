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
  Only the first element calls ``np.linalg.solve``, which raises
  ``LinAlgError`` on an exactly singular system.  Each later element calls
  the gufunc under that wrapper (``numpy.linalg._umath_linalg.solve``)
  directly, without its type checks and ``errstate``.  It still runs
  LAPACK's ``zgesv``, which factors the system again, but the same matrix
  factors with the same pivots, so the first element's check carries over
  and the solution is the same array bit for bit.  At these sizes an element
  costs more in numpy calls than in arithmetic, so it makes as few as it
  can: ``np.einsum``'s C function is bound without its Python wrapper, and
  the solve writes straight into the layout that the end values sum over.
* ``n >= 3``, the pencil solve: ``load`` is the first column of ``deriv``, so
  ``deriv^-1`` turns the system into ``scale X - T (a X) = e_0 (a psi_prev)``,
  ``T = deriv^-1 overlap``.  Its Schur form ``T = u r u^H`` makes it block
  upper triangular in ``Y = u^H X`` (Bartels and Stewart, 1972): each element
  solves ``(scale I - r[k, k] a) Y[k] = a u_k`` for ``k = m - 1`` down to 0,
  where ``u_k`` combines ``psi_prev`` and the ``Y[j]`` already solved, and its
  end value is one more such combination.  All these combinations are rows of
  one coupling matrix ``[[r, load'], [end', 1]]`` (``BasisTables.pencil``).
  The shifted blocks are inverted once per march, so an element costs
  O(m n^3), not O((n m)^3).

The switch sits at n = 3, and not for speed alone (ROADMAP has the
timings).  The two solves agree to rounding, but at n = 2 the pencil solve
moves the E = 5 row of ``table1 m1`` from 10 basis functions to 9, as its
m = 9 error sits on the 1e-14 tolerance.  The tests and the benchmark's gate
pin that row, so n <= 2, which holds every ``table1`` matrix, keeps the dense
solve.  The row moves with any change to the dense solve's rounding: to 9
through the pencil solve, to 11 when the end values are one flat sum over all
columns instead of one sum per column.

Below n = 40 (``COMPLEX_MIN_SIZE``) the pencil solve multiplies real forms:
there a complex product costs more in call overhead than in arithmetic, and
one real BLAS call on its real form costs less.  The complex ``Z = X + iY``
becomes ``[[X, -Y], [Y, X]]`` (``basis.real_form``), each block ``Y[k]`` the
stacked ``[Re Y[k]; Im Y[k]]`` and each coupling entry a 2 x 2 real block
(``BasisTables.pencil_real``).  That is the conventional complex product as
four real ones, so it keeps its error bound, which the three-multiplication
form does not (Higham, SIMAX 1992).  The shifted blocks are still inverted as
complex matrices and only then embedded.  From n = 40 the same loop runs on
complex operands, although at E = 8 real forms take 0.84-0.98x their time
up to n = 60; only from n = 64 do real forms take longer, 1.08x and more
(``BENCH_32.json``).  The switch stays at 40 because moving it changes the
bits of every result at n = 40-63, and no benchmark workload runs those
sizes to show the gain.

A march's arrays and bound calls depend on its layout alone, not on ``a``
or the element counts: for the pencil solve the size, the operand form and
the rows' basis counts, for the dense solve the size, the basis count and
the number of rows.  So each march is kept between calls and looked up by
its layout (``_MarchStore``).  A kept pencil march holds one flat byte
buffer with views of the shifted blocks, the state with its u and
right-hand-side buffers, ``a`` and the inverses (in real form below
``COMPLEX_MIN_SIZE``); outside it, the shifts and coupling rows it sliced
from its tables when it was built, with the right-aligned coupling matrices
of rows of several basis counts; and one element's bound calls for each
count of active rows it has run.  A kept dense march holds its
right-hand-side and coefficient buffers, their views and the solve kernel.
A repeat call at a layout it has run so skips the layout, the views and the
binding, about 30 us at n = 3..8 and m = 8: a third of a call at E = 1 and
a sixth at E = 8 (``BENCH_35.json``).  Its memory also stays with the process, where freed
buffers went back to the kernel whenever glibc trimmed the heap and the next
large call faulted them in again (``BENCH_31.json``).
Each call still writes ``a``, the shifted blocks, their inverses, by
``np.linalg.inv`` so that an exactly singular block raises, and the state.
Three rules make the kept marches safe to share:

* A march takes a kept march out of the store and gives it back however it
  ends, both under one lock, so no two live marches ever share one and
  ``expm`` stays reentrant and thread-safe.  The store keeps one march per
  layout.
* The kept marches take at most ``SPARE_BYTES`` in all, counting every
  array each one keeps: the least recently used marches are dropped first,
  and a march that alone is larger is not kept, so one huge call pins no
  memory once it returns.  No march of several rows takes more than
  ``SPARE_BYTES`` (``expm_each``), so each one can be kept.
* It is only memory: each march writes every array before reading it, the
  whole state included, and returns fresh arrays, so no result depends on
  what a kept march held.

``expm_each`` marches several ``(E, m)`` rows of one matrix together, and
its docstring gives the one rule for which rows share a march.  A march's
rows sit on a new outermost axis of the states, of the dense systems and of
the pencil's inverses, and each step is one call for all active rows.  They
go longest first, and a row retires once it has marched its own count, so
the active rows are always a prefix and the march runs max(E) elements, not
their sum.  In the pencil solve rows of several basis counts right-align
their basis steps to the march's largest count M: row r's step k sits at
position ``M - m_r + k`` of an (M + 1)-block state whose last block holds
``psi``.  With the rows in descending basis count the active rows at each
position are a prefix too, and each couples the same tail of its state, so
the couple, ``a u_k`` and inverse product are again one ``np.matmul`` each.
Two things stay per basis count, because padding changes bits (ROADMAP,
measured dead ends): the pencil's end combine, one call per run of rows of
one basis count, and the dense solve, one march per basis count.

Every row stays bitwise equal to one ``expm`` call: each stacked call runs
the same LAPACK or BLAS kernel per row.  A position with one active row,
which is all of ``expm``'s single row, calls ``ndarray.dot`` methods bound
to that row's 2-D operands, because stacked operands cost a single row more
in ``np.matmul`` dispatch; its kept march binds them once.  Complex rows
march one at a time: ``np.matmul`` rounds the (1 x 1)(1 x n^2) complex
product of the first back-substitution step differently from
``ndarray.dot``, so stacked complex rows would need a binding of their own.

Only ``expm`` and ``expm_each`` check input and decide overflow, by one
rule for both solves (``expm``'s Raises section); the functions here trust
them.
"""

import functools
import itertools
import operator
import threading
from dataclasses import dataclass

import numpy as np
# two numpy privates, each bound in one place, so pyproject.toml caps numpy at
# the newest release the tests have checked them on (numpy 1.24 to 2.4):
# the gufunc np.linalg.solve calls, which the dense march's later elements use,
# and the C function np.einsum calls, which assemble_rhs uses.  numpy 2 moved
# numpy.core to numpy._core and warns on any access to the old name
from numpy.linalg import _umath_linalg

try:
    from numpy._core.multiarray import c_einsum
except ImportError:
    from numpy.core.multiarray import c_einsum

from .basis import BasisTables, build_tables, real_form
from .matio import as_complex_matrix

# matrix size from which expm uses the pencil solve (see the module docstring)
PENCIL_MIN_SIZE = 3
# matrix size from which the pencil solve multiplies complex operands, not real forms
COMPLEX_MIN_SIZE = 40
# most bytes of arrays that the kept marches hold together, and so the most
# that expm_each lets a march of several rows take (module docstring).
# Faults cost a call less as n grows, its arithmetic growing as n^3 and the
# faulted bytes as n^2: at E = 8 they took 5-9% of a call at n = 64 and 96 and
# 2-3% from n = 128 (m = 8 and 16, BENCH_31.json cap).  8 MiB keeps every
# one-row march up to n = 96 at m = 16 and n = 128 at m = 8; expm_large's
# largest needs 1.75 MiB and its three layouts 3.4 MiB together
SPARE_BYTES = 8 << 20


@dataclass(frozen=True, eq=False)
class ExpmReport:
    """Result of a full propagation and the element and basis counts that produced it."""

    result: np.ndarray
    num_elements: int
    num_basis: int


def assemble_system(a: np.ndarray, scale: float | np.ndarray, tables: BasisTables) -> np.ndarray:
    """The (n*m) x (n*m) block system ``scale kron(deriv, I_n) - kron(overlap, a)``,
    entry (mu', i), (mu, k) being ``scale deriv[mu', mu] (i == k) - overlap[mu', mu] a[i, k]``.

    A 1-D array of scales gives the (rows, n*m, n*m) stack of their systems,
    each entry the same product as in the call with that scale alone.
    """
    n = a.shape[0]
    scale = np.asarray(scale)
    eye = np.eye(n)
    system = ((scale[..., None, None] * tables.deriv)[..., :, None, :, None] * eye[None, :, None, :]
              - tables.overlap[:, None, :, None] * a[None, :, None, :])
    return system.reshape(scale.shape + (n * tables.m, n * tables.m))


def assemble_rhs(a: np.ndarray, psi_prev: np.ndarray, load: np.ndarray, out=None) -> np.ndarray:
    """Right-hand sides ``load[mu'] * (a @ psi_prev)[i, j]`` at row (mu', i), column j;
    the product sums in ascending order, so nested loops reproduce it bitwise.

    States stacked as (rows, 1, n, n) give one (n*m) x n block per row: their
    unit axis broadcasts against the basis axis.  ``out``, a C-contiguous
    array of the result's shape, receives the same values and is returned.
    """
    n = a.shape[0]
    # np.einsum's own call, without its Python wrapper
    product = c_einsum("ik,...kj->...ij", a, psi_prev)
    if out is None:
        return (load[:, None, None] * product).reshape(psi_prev.shape[:-3] + (-1, n))
    np.multiply(load[:, None, None], product, out=out.reshape(out.shape[:-2] + (-1, n, n)))
    return out


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
    row = _checked_row(num_elements, num_basis)
    (psi,) = _march(a, [row])
    return ExpmReport(result=psi, num_elements=row[0], num_basis=row[1].m)


def expm_each(a, rows) -> list:
    """``exp(a)`` at each of several ``(num_elements, num_basis)`` rows, marched together.

    Returns one fresh n x n result per row, in the order given, each bitwise
    equal to ``expm(a, num_elements, num_basis).result``; the rows need not be
    sorted or distinct.  Checks its input and raises exactly as ``expm`` does,
    before any solve for bad input; an overflow in any row raises
    ``OverflowError("solution ...")``.

    This is the one place that decides which rows march together (module
    docstring).  The rows go in descending basis count, then element count,
    and each joins the march before it if

    * for n <= 2, it has that march's basis count;
    * from n = 3, n < ``COMPLEX_MIN_SIZE``, its element count is at most
      that of the march's last row, and the march stays within
      ``SPARE_BYTES``, priced by ``_pencil_layout`` with every row's basis
      steps counted at the march's first, largest, basis count M;

    and otherwise starts a new march.  So a sweep over either count, and
    each basis count of a minimum-basis search, is one march wherever it
    fits, and every march of several rows is kept.
    """
    a = as_complex_matrix(a)
    rows = [_checked_row(*row) for row in rows]
    n = a.shape[0]
    # largest basis count first, then most elements: a march over such rows
    # keeps its active rows a prefix at every basis step and every element
    order = sorted(range(len(rows)), key=lambda row: (rows[row][1].m, rows[row][0]), reverse=True)
    marches = []
    for row in order:
        num_elements, tables = rows[row]
        num_rows = len(marches[-1]) + 1 if marches else 0
        if marches and (tables.m == m if n < PENCIL_MIN_SIZE else (
                n < COMPLEX_MIN_SIZE and num_elements <= rows[marches[-1][-1]][0]
                and _pencil_layout(n, 2, m, num_rows, num_rows * m)[-1] <= SPARE_BYTES)):
            marches[-1].append(row)
        else:
            # a new march, whose first row has its largest basis count m
            m = tables.m
            marches.append([row])
    results = [None] * len(rows)
    for march in marches:
        for row, psi in zip(march, _march(a, [rows[row] for row in march])):
            results[row] = psi
    return results


def _checked_row(num_elements, num_basis):
    """``(num_elements, tables)`` for one row, its counts checked as ``expm`` documents."""
    num_elements = operator.index(num_elements)
    if num_elements < 1:
        raise ValueError("number of elements must be >= 1")
    return num_elements, build_tables(num_basis)


def _march(a: np.ndarray, rows) -> list:
    """One march over checked rows in ``expm_each``'s order: ``psi`` per row,
    after the set-up and solution checks of ``expm``'s Raises section."""
    propagate = _pencil_propagate if a.shape[0] >= PENCIL_MIN_SIZE else _dense_propagate
    # no |overlap| entry exceeds overlap[0, 0] = 1.5 pi, at any basis count, and
    # no pencil |r[k, k]| exceeds 1.5 (both pinned by tests), so this check covers
    # the dense system, the shifted blocks and the first element's right-hand sides
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(rows[0][1].overlap[0, 0] * a).all():
            raise OverflowError("block system overflowed to non-finite values")
        marched = propagate(a, rows)
    for psi in marched:
        if not np.isfinite(psi).all():
            raise OverflowError("solution overflowed to non-finite values")
    return marched


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


class _MarchStore:
    """Marches kept between calls by layout, with at most ``SPARE_BYTES`` of
    arrays in all, each march counted at its ``nbytes`` (module docstring).

    ``take`` removes a march from the store, so no other march can take it
    until ``give_back`` returns it; both hold the lock, so ``expm`` stays
    reentrant and thread-safe.  It keeps whole marches, so two layouts that
    together exceed ``SPARE_BYTES`` evict each other on every call:
    alternating ``expm`` at (n, m) = (96, 16) and (64, 8), E = 1, took 21.6
    minor faults per call against 13.2 with one shared buffer, though still
    less time (``BENCH_35.json`` ``layout_thrash``).
    """

    def __init__(self):
        self._lock = threading.Lock()
        # by key, the least recently given back first
        self._marches = {}
        self.nbytes = 0

    def take(self, key):
        """The kept march of layout ``key``, or None if none is free."""
        with self._lock:
            march = self._marches.pop(key, None)
            if march is not None:
                self.nbytes -= march.nbytes
            return march

    def give_back(self, march):
        """Keep ``march`` for the next march of its layout, unless it alone
        exceeds ``SPARE_BYTES`` or one of that layout is kept already; the
        least recently used marches go until the rest fit."""
        with self._lock:
            if march.nbytes > SPARE_BYTES or march.key in self._marches:
                return
            self._marches[march.key] = march
            self.nbytes += march.nbytes
            while self.nbytes > SPARE_BYTES:
                self.nbytes -= self._marches.pop(next(iter(self._marches))).nbytes


_kept_marches = _MarchStore()


class _DenseMarch:
    """What a dense march over ``num_rows`` rows of basis count m at size n
    needs besides ``a`` and its element counts: one buffer for each element's
    right-hand sides and coefficients, views of it, and the solve kernel.

    ``per_col`` holds the coefficients as (column, basis, row), one contiguous
    (m, n) block per column, evaluated at +1; the solve writes them through
    ``coeffs``, a view that orders each row's (basis, row) x column block by
    columns.
    """

    def __init__(self, key, n, m, num_rows):
        self.key = key
        size = num_rows * m * n * n
        self.buffer = np.empty(2 * size, dtype=np.complex128)
        # what the store counts
        self.nbytes = self.buffer.nbytes
        self.rhs = self.buffer[:size].reshape(num_rows, m * n, n)
        self.per_col = self.buffer[size:].reshape(num_rows, 1, n, m, n)
        self.coeffs = self.per_col.transpose(0, 1, 3, 4, 2).reshape(self.rhs.shape)
        self.solve = functools.partial(_umath_linalg.solve, signature="DD->D")
        # bind's results by count of active rows
        self.bound = {}

    def bind(self, num_active):
        """``(rhs, coeffs, per_col)`` of the first ``num_active`` rows, kept in
        ``bound``; one row's are its 2-D views, as for a single count."""
        if num_active == 1:
            bound = self.rhs[0], self.coeffs[0], self.per_col[0, 0]
        else:
            bound = self.rhs[:num_active], self.coeffs[:num_active], self.per_col[:num_active]
        self.bound[num_active] = bound
        return bound


def _dense_propagate(a: np.ndarray, rows):
    """The dense solve: ``psi`` after each row's count of elements from the
    identity, for ``(num_elements, tables)`` rows of one basis count with
    element counts in descending order.

    Rows sit on the leading axis of the systems, of the states, which stack
    as (rows, 1, n, n) (``assemble_rhs``), and of the buffers that each
    element writes, which come from a kept march (``_DenseMarch``).
    """
    n = a.shape[0]
    tables = rows[0][1]
    element_counts = [count for count, _ in rows]
    # equal elements of width 1/E map onto [-1, 1] with scale 2E
    systems = assemble_system(a, 2.0 * np.array(element_counts, dtype=float), tables)
    # the identity broadcasts over the rows until the first element
    psi = np.eye(n, dtype=np.complex128)[None, None]
    key = ("dense", n, tables.m, len(rows))
    march = _kept_marches.take(key) or _DenseMarch(key, n, tables.m, len(rows))

    def solve_checked(system, b, out):
        out[...] = np.linalg.solve(system, b)

    results = []
    # the first element, where every row is active, solves through np.linalg.solve,
    # which raises LinAlgError on an exactly singular system.  Each later element
    # calls the kernel under that wrapper directly: it factors the same systems
    # again, with the same pivots and so none of them zero, and returns bitwise the
    # same solution, without the wrapper's type checks and errstate (half of each call)
    solve = solve_checked
    try:
        for rows, elements in _segments(element_counts):
            rhs, coeffs, per_col = march.bound.get(rows) or march.bind(rows)
            psi, system = (psi[0, 0], systems[0]) if rows == 1 else (psi[:rows], systems[:rows])
            for _ in range(elements):
                solve(system, assemble_rhs(a, psi, tables.load, out=rhs), out=coeffs)
                solve = march.solve
                # this summation order is pinned: the flat sum end_vals @ coeffs.reshape(m, n * n)
                # changes at least one bit for 45% of random n <= 2 coefficients (m = 1..40),
                # and with it table1 m1's E = 5 row (10 -> 11) and the README's m1 digits,
                # which tests pin byte for byte
                psi = psi + (tables.end_vals @ per_col).swapaxes(-1, -2)
            # the last active row has marched its count; a stretch of no elements
            # leaves it a view of the stack, which the result must not be
            last = psi if rows == 1 else psi[rows - 1, 0]
            results.append(last if rows == 1 and elements else last.copy())
    finally:
        _kept_marches.give_back(march)
    return results[::-1]


def _pencil_layout(n: int, p: int, m: int, num_rows: int, num_blocks: int) -> list:
    """Where a pencil march's arrays start in its buffer, the buffer's size
    and the march's price, in bytes: ``[state, u, rhs, a, inverses, size, price]``.

    The buffer is laid out in cells of one complex n x n block rounded up to
    64 bytes, so that each array starts aligned: the ``num_blocks`` shifted
    blocks; per row its ``m + 1`` state blocks, u and the right-hand side;
    and ``p`` cells for ``a`` and ``p`` for each inverse, in real form when
    ``p = 2``.  The price adds the arrays a march keeps outside its buffer,
    at their largest: a right-aligned coupling matrix per row, ``p (m + 1)``
    square at ``16 / p`` bytes an entry, and per block a shift and a row
    index, 24 bytes.  ``expm_each`` admits rows at this price, with
    ``num_rows m`` blocks, and a march counts at most its price (``nbytes``).
    """
    cell = -(-16 * n * n // 64) * 64
    cells = (num_blocks, num_rows * (m + 1), num_rows, num_rows, p, p * num_blocks)
    # each array ends where the next starts
    ends = [cell * end for end in itertools.accumulate(cells)]
    return ends + [ends[-1] + 16 * p * num_rows * (m + 1) ** 2 + 24 * num_blocks]


class _PencilMarch:
    """What a pencil march needs besides ``a`` and its element counts, for
    rows of given basis counts at size n: its layout, the views of its buffer,
    the shifts and coupling rows sliced from its tables once, when it is
    built, and, per count of active rows, one element's bound calls (``bind``).

    Row r's basis step k sits at position ``m - m_r + k`` of its buffers and
    inverses, and its state at ``m``, where ``m`` is the first row's, largest,
    count.  Below ``COMPLEX_MIN_SIZE`` (``p = 2``) each block is held as the
    stacked real ``[Re Y[k]; Im Y[k]]`` in two of its rows, and ``a``, the
    inverses and the coupling are bound in real form, so that each product is
    one real BLAS call; from it every operand is complex, each block takes
    ``p = 1`` row, and a march holds one row.
    """

    def __init__(self, key, n, p, rows):
        self.key, self.p = key, p
        dtype = np.float64 if p == 2 else np.complex128
        m = self.m = rows[0][1].m
        basis_counts = np.array([tables.m for _, tables in rows])
        # step[r, k]: row r's basis step at position k, negative before it starts;
        # order: the rows' steps in the order of the stack, position-major, row-minor
        step = np.arange(m) - (m - basis_counts)[:, None]
        order = ((np.cumsum(basis_counts) - basis_counts)[:, None] + step).T[step.T >= 0]
        # active[k]: how many rows reach back to position k, always the first ones;
        # offsets[k]: where the blocks of position k start in the stack of shifted
        # blocks and inverses, position by position, so that the rows active at
        # position k are the blocks from offsets[k] (numpy's inv takes about a
        # tenth longer with a leading axis more)
        self.active = (step >= 0).sum(0).tolist()
        self.offsets = list(itertools.accumulate(self.active, initial=0))
        # runs: consecutive rows of one basis count, as (start, stop, coupling
        # matrix in the march's form); a run's rows all start at one position,
        # so active takes each run's stop
        stops = sorted(set(self.active))
        self.runs = [(first, stop, rows[first][1].pencil_real if p == 2 else rows[first][1].pencil)
                     for first, stop in zip([0] + stops, stops)]
        # shifts: the -r[k, k] of each shifted block, and block_rows the row it
        # belongs to, in the order of the stack
        self.shifts = -np.concatenate([tables.pencil.diagonal()[:-1] for _, tables in rows])[order, None, None]
        self.block_rows = np.repeat(np.arange(len(rows)), basis_counts)[order, None]
        # the first row's coupling rows of each step
        first_coupling = self.runs[0][2]
        self.first_steps = [first_coupling[p * k:p * k + p, p * k + p:] for k in range(m)]
        kept = [self.shifts, self.block_rows]
        if len(self.runs) > 1:
            # rows of several basis counts right-align their coupling matrices;
            # each row reads only its own block
            size = p * (m + 1)
            self.coupling = np.empty((len(rows), size, size), dtype=dtype)
            for first, stop, own in self.runs:
                self.coupling[first:stop, size - own.shape[0]:, size - own.shape[0]:] = own
            kept.append(self.coupling)
        else:
            # rows of one basis count share their coupling rows, which broadcast
            # over however many rows are active
            self.couples = [functools.partial(np.matmul, step) for step in self.first_steps]
        # the large arrays are views of one buffer (_pencil_layout)
        num_blocks, num_rows = self.offsets[-1], len(rows)
        state_at, u_at, rhs_at, a_at, inverse_at, nbytes, _ = _pencil_layout(n, p, m, num_rows, num_blocks)
        buffer = self.buffer = np.empty(nbytes, dtype=np.uint8)
        # what the store counts: the buffer and every array kept outside it
        self.nbytes = buffer.nbytes + sum(array.nbytes for array in kept)
        # shifted: the diagonal blocks of the triangularised system, one per
        # basis step and row, inverted as complex matrices
        self.shifted = np.ndarray((num_blocks, n, n), np.complex128, buffer)
        self.diagonals = self.shifted.reshape(num_blocks, n * n)[:, ::n + 1]
        self.state = np.ndarray((num_rows, p * (m + 1), n * n), dtype, buffer, state_at)
        # psi's diagonal in the flattened (real part of the) state
        self.psi_diagonal = self.state[:, p * m, ::n + 1]
        self.u_rows = np.ndarray((num_rows, p, n * n), dtype, buffer, u_at)
        self.rhs = np.ndarray((num_rows, p * n, n), dtype, buffer, rhs_at)
        self.a_form = np.ndarray((p * n, p * n), dtype, buffer, a_at)
        self.inverse = np.ndarray((num_blocks, p * n, p * n), dtype, buffer, inverse_at)
        self.blocks = self.state.reshape(num_rows, m + 1, p * n, n)
        self.u_blocks = self.u_rows.reshape(num_rows, p * n, n)
        # bind's results by count of active rows
        self.bound = {}

    def bind(self, num_active):
        """The calls of one element over the first ``num_active`` rows, kept in
        ``bound``.

        Per basis position, from m - 1 down, one ``(couple, tail, u, times_a,
        u_k, rhs, solve, y_k)`` step: each product over the rows active there.
        Then the end combines as ``(combine, tail, out)``, and the end state
        with the rows it is copied from.
        """
        p, m, state, u_rows, first_steps = self.p, self.m, self.state, self.u_rows, self.first_steps
        times_a = functools.partial(np.matmul, self.a_form)
        steps = []
        # the first row's 2-D operands, which a position with one active row binds,
        # and the stacked operands of the first rows_k rows, sliced once per count
        first_state, first_u, first_rhs, first_blocks = state[0], u_rows[0], self.rhs[0], self.blocks[0]
        first_u_blocks = self.u_blocks[0]
        stacked = {}
        for k in range(m - 1, -1, -1):
            rows_k = min(num_active, self.active[k])
            offset = self.offsets[k]
            if rows_k == 1:
                # ndarray.dot bound once skips np.dot's dispatch, dearer than the
                # arithmetic at small n; every output is C-contiguous and aliases no input
                steps.append((first_steps[k].dot, first_state[p * k + p:], first_u, self.a_form.dot,
                              first_u_blocks, first_rhs, self.inverse[offset].dot, first_blocks[k]))
                continue
            if rows_k not in stacked:
                stacked[rows_k] = (state[:rows_k], u_rows[:rows_k], self.u_blocks[:rows_k],
                                   self.rhs[:rows_k], self.blocks[:rows_k])
            row_state, row_u, row_u_blocks, row_rhs, row_blocks = stacked[rows_k]
            couple = self.couples[k] if len(self.runs) == 1 else functools.partial(
                np.matmul, self.coupling[:rows_k, p * k:p * k + p, p * k + p:])
            steps.append((couple, row_state[:, p * k + p:], row_u, times_a, row_u_blocks, row_rhs,
                          functools.partial(np.matmul, self.inverse[offset:offset + rows_k]),
                          row_blocks[:, k]))
        active_runs = [(first, min(stop, num_active), coupling)
                       for first, stop, coupling in self.runs if first < num_active]
        # the end rows differ in length between basis counts; one run is one call
        ends = []
        for first, stop, coupling in active_runs:
            end_row = coupling[-p:]
            tail = p * (m + 1) - coupling.shape[0]
            if stop - first == 1:
                ends.append((end_row.dot, state[first, tail:], u_rows[first]))
            else:
                ends.append((functools.partial(np.matmul, end_row), state[first:stop, tail:],
                             u_rows[first:stop]))
        bound = self.bound[num_active] = steps, ends, state[:num_active, p * m:], u_rows[:num_active]
        return bound


def _pencil_propagate(a: np.ndarray, rows):
    """The pencil solve: ``psi`` after each row's count of elements from the
    identity, for ``(num_elements, tables)`` rows whose basis and element
    counts both descend.

    Per row, a work buffer stacks ``[Y[0] ... Y[m - 1], psi]``; coupling row
    ``k < m`` forms ``u_k`` from it and row ``m`` the end state, which
    replaces ``psi``.  Set-up picks the operands by n alone (``_PencilMarch``
    and the module docstring say why), and the loop is the same for both.
    The march's arrays and calls come from a kept march, which it gives back
    however it ends; it writes ``a``, the shifted blocks, their inverses and
    the state afresh, and every result is a fresh array.
    """
    n = a.shape[0]
    p = 2 if n < COMPLEX_MIN_SIZE else 1
    key = ("real" if p == 2 else "complex", n) + tuple(tables.m for _, tables in rows)
    march = _kept_marches.take(key) or _PencilMarch(key, n, p, rows)
    m = march.m
    try:
        np.multiply(march.shifts, a, out=march.shifted)
        if len(rows) == 1:
            scales = 2.0 * rows[0][0]
        else:
            scales = np.array([2.0 * count for count, _ in rows])[march.block_rows]
        np.add(march.diagonals, scales, out=march.diagonals)
        inverse = np.linalg.inv(march.shifted)
        if p == 2:
            real_form(a, out=march.a_form)
            real_form(inverse, out=march.inverse)
        else:
            # bound calls read a and the inverses from the march's own memory
            march.a_form[...] = a
            march.inverse[...] = inverse
        # the buffer holds whatever its last march left, so the whole state is set, psi = I
        march.state.fill(0.0)
        march.psi_diagonal.fill(1.0)
        finished = []
        for num_active, elements in _segments([count for count, _ in rows]):
            # rows of one count retire together, after a stretch of no elements
            if elements:
                steps, ends, end_state, end_rows = march.bound.get(num_active) or march.bind(num_active)
                for _ in range(elements):
                    for couple, tail, u, times, u_k, rhs_k, solve, y_k in steps:
                        couple(tail, out=u)
                        times(u_k, out=rhs_k)
                        solve(rhs_k, out=y_k)
                    for combine, tail, out in ends:
                        combine(tail, out=out)
                    end_state[...] = end_rows
            # the last active row has marched its count
            last = march.blocks[num_active - 1, m]
            if p == 1:
                finished.append(last.copy())
            else:
                psi = np.empty((n, n), dtype=np.complex128)
                psi.real = last[:n]
                psi.imag = last[n:]
                finished.append(psi)
        return finished[::-1]
    finally:
        _kept_marches.give_back(march)
