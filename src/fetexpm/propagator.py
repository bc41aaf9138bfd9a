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
  and each element solves it for all ``n`` columns with one LAPACK call, the
  gufunc under ``np.linalg.solve`` (``numpy.linalg._umath_linalg.solve``)
  bound without that wrapper's type checks.  Only the first element runs it
  under the wrapper's ``errstate``, which raises ``LinAlgError`` on an
  exactly singular system; each later element calls it bare.  It still runs
  LAPACK's ``zgesv``, which factors the system again, but the same matrix
  factors with the same pivots, so the first element's check carries over
  and the solution is the same array bit for bit.  At these sizes an element
  costs more in numpy calls than in arithmetic, so it makes as few as it
  can: ``np.einsum``'s C function is bound without its Python wrapper, the
  right-hand sides are written through views bound once, and the solve
  writes straight into the layout that the end values sum over.
* ``n >= 3``, the pencil solve: ``load`` is the first column of ``deriv``, so
  ``deriv^-1`` turns the system into ``scale X - T (a X) = e_0 (a psi_prev)``,
  ``T = deriv^-1 overlap``.  Its Schur form ``T = u r u^H`` makes it block
  upper triangular in ``Y = u^H X`` (Bartels and Stewart, 1972): each element
  solves ``(scale I - r[k, k] a) Y[k] = a u_k`` for ``k = m - 1`` down to 0,
  where ``u_k`` combines ``psi_prev`` and the ``Y[j]`` already solved, and its
  end value is one more such combination.  All these combinations are rows of
  one coupling matrix ``[[r, load'], [end', 1]]`` (``BasisTables.pencil``).
  The shifted blocks are inverted once per march, so an element costs
  O(m n^3), not O((n m)^3), by the gufunc under ``np.linalg.inv``
  (``numpy.linalg._umath_linalg.inv``) bound as the dense solve's kernel is,
  under that wrapper's ``errstate`` so that an exactly singular block raises
  ``LinAlgError``, and writing into the march's own memory.

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
complex matrices and only then embedded: ``a`` and the inverses are staged
back to back as complex matrices, and one ``real_form`` call writes both
into their real forms, also back to back.  From n = 40 the same loop runs on
complex operands, although at E = 8 real forms take 0.84-0.98x their time
up to n = 60; only from n = 64 do real forms take longer, 1.08x and more
(``BENCH_32.json``).  The switch stays at 40 because moving it changes the
bits of every result at n = 40-63, and no benchmark workload runs those
sizes to show the gain.

A march's arrays and bound calls depend on its layout alone, not on ``a``
or the element counts: for the pencil solve the size, the operand form and
the rows' basis counts, for the dense solve the size, the basis count and
the number of rows.  So each march is kept between calls and looked up by
its layout (``_MarchStore``).  A kept pencil march holds its own arrays:
the shifted blocks; the state with its u and right-hand sides; ``a`` and the
inverses back to back (in real form below ``COMPLEX_MIN_SIZE``, staged as
complex matrices in a view over the start of the state); the shifts and
coupling rows it sliced from its tables when it was built, with the
right-aligned coupling matrices of rows of several basis counts; the
inverse kernel; and one element's bound calls for each count of active rows
it has run.  A kept dense march holds its right-hand sides, coefficients and
systems, their views, the identity it starts from and the solve kernel.  A
repeat call at a layout it has run so allocates and binds nothing, which
saved about 30 us at n = 3..8 and m = 8: a third of a call at E = 1 and a
sixth at E = 8 (``BENCH_35.json``).  Its memory also stays with the
process, where freed arrays went back to the kernel whenever glibc trimmed
the heap and the next large call faulted them in again (``BENCH_31.json``).
Each call still writes ``a``, the shifted blocks, their inverses and the
state, or the dense systems.  Three rules make the kept marches safe to
share:

* A march takes a kept march out of the store and gives it back however it
  ends, both under one lock, so no two live marches ever share one and
  ``expm`` stays reentrant and thread-safe.  The store keeps one march per
  layout.
* The kept marches take at most ``SPARE_BYTES`` in all, counting every
  array each one keeps and the calls it binds: the least recently used
  marches are dropped first, and a march that alone is larger is not kept,
  so one huge call pins no memory once it returns.  ``expm_each`` admits a
  row to a pencil march of several rows only while the march stays within
  ``SPARE_BYTES``, so each of those is kept.  A dense march has no such
  bound: at n = 2, m = 40 the march over E = 1..100 takes more than
  ``SPARE_BYTES``, and is not kept.
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
import math
import operator
import sys
import threading
from dataclasses import dataclass

import numpy as np
# two numpy privates, each bound in one place, so pyproject.toml caps numpy at
# the newest release the tests have checked them on (numpy 1.24 to 2.4):
# the module of the gufuncs np.linalg.solve and np.linalg.inv call, whose solve
# kernel the dense march and whose inverse kernel the pencil march bind, and
# the C function np.einsum calls, which assemble_rhs and the dense march use.
# numpy 2 moved numpy.core to numpy._core and warns on any access to the old name
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


def _singular(err, flag):
    """``np.errstate``'s call when a bound LAPACK kernel flags an exactly
    singular matrix as invalid: raise as ``np.linalg.inv`` and ``solve`` do."""
    raise np.linalg.LinAlgError("Singular matrix")


# the errstate np.linalg.inv and np.linalg.solve wrap their kernels in, for the
# kernels bound without those wrappers
_raising_singular = functools.partial(np.errstate, call=_singular, invalid="call", over="ignore",
                                      divide="ignore", under="ignore")


# as many as _cached_tables keeps tables; the dense solve asks for n = 1 and 2 only
@functools.lru_cache(maxsize=64)
def _system_operands(n: int, tables: BasisTables) -> tuple:
    """``assemble_system``'s operands that depend on n and m alone: ``kron(deriv,
    I_n)`` as an (m, n, m, n) array and ``overlap`` viewed to broadcast against it."""
    kron_deriv = tables.deriv[:, None, :, None] * np.eye(n)[None, :, None, :]
    kron_deriv.setflags(write=False)
    return kron_deriv, tables.overlap[:, None, :, None]


def assemble_system(a: np.ndarray, scale: float | np.ndarray, tables: BasisTables, out=None) -> np.ndarray:
    """The (n*m) x (n*m) block system ``scale kron(deriv, I_n) - kron(overlap, a)``,
    entry (mu', i), (mu, k) being ``scale deriv[mu', mu] (i == k) - overlap[mu', mu] a[i, k]``.

    A 1-D array of scales gives the (rows, n*m, n*m) stack of their systems,
    each entry the same product as in the call with that scale alone.  An
    off-diagonal zero of a block carries the sign of ``scale deriv[mu', mu]``.
    ``out``, a C-contiguous complex array of the result's shape, receives the
    same values and is returned.
    """
    n = a.shape[0]
    scale = np.asarray(scale)
    kron_deriv, overlap = _system_operands(n, tables)
    if out is None:
        out = np.empty(scale.shape + (n * tables.m, n * tables.m), dtype=np.complex128)
    # scale (deriv[mu', mu] delta_ik) equals (scale deriv[mu', mu]) delta_ik bit
    # for bit, signed zeros included, as multiplying by 1 is exact and a
    # product's sign is its factors'
    blocks = np.multiply(scale[..., None, None, None, None], kron_deriv,
                         out=out.reshape(scale.shape + kron_deriv.shape))
    np.subtract(blocks, overlap * a[None, :, None, :], out=blocks)
    return out


def assemble_rhs(a: np.ndarray, psi_prev: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Right-hand sides ``load[mu'] * (a @ psi_prev)[i, j]`` at row (mu', i), column j;
    the product sums in ascending order, so nested loops reproduce it bitwise.

    States stacked as (rows, 1, n, n) give one (n*m) x n block per row: their
    unit axis broadcasts against the basis axis.  The dense march writes the
    same product through views of its own right-hand sides.
    """
    n = a.shape[0]
    # np.einsum's own call, without its Python wrapper
    product = c_einsum("ik,...kj->...ij", a, psi_prev)
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
      ``SPARE_BYTES``, priced by ``_pencil_price`` with every row's basis
      steps counted at the march's first, largest, basis count M;

    and otherwise starts a new march.  So a sweep over either count, and
    each basis count of a minimum-basis search, is one march wherever it
    fits, and every pencil march of several rows is kept.  A dense march
    is not bounded and is kept only if it fits (module docstring).
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
                and _pencil_price(n, 2, m, num_rows, num_rows * m) <= SPARE_BYTES)):
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
    # the dense system, the shifted blocks and the first element's right-hand sides.
    # a is finite (as_complex_matrix) and rounding is monotone, so 1.5 pi a is
    # finite exactly when 1.5 pi times its largest real or imaginary part is
    largest = np.abs(a.view(np.float64)).max()
    if not math.isfinite(float(rows[0][1].overlap[0, 0]) * float(largest)):
        raise OverflowError("block system overflowed to non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
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
    """Marches kept between calls by layout, each counted at its ``nbytes``,
    its own arrays and the calls it binds, with at most ``SPARE_BYTES`` in
    all (module docstring).

    ``take`` removes a march from the store, so no other march can take it
    until ``give_back`` returns it; both hold the lock, so ``expm`` stays
    reentrant and thread-safe.  It keeps whole marches, each with arrays of
    its own, so two layouts that together exceed ``SPARE_BYTES`` evict each
    other on every call: alternating ``expm`` at (n, m) = (96, 16) and
    (64, 8), E = 1, took 21.6 minor faults per call against 13.2 when one
    byte buffer served every layout, though still less time
    (``BENCH_35.json`` ``layout_thrash``).
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


def _held_bytes(bound, shared) -> int:
    """Bytes of the Python objects a march's ``bind`` made: those reachable from
    ``bound`` through tuples, lists, partials and bound methods, each once,
    except the march's own ``shared`` ones.  An array counts its object alone:
    every one reached is a view, and numpy takes a view's shape and strides
    from a cache of small allocations that it keeps anyway."""
    seen, todo, total = {id(obj) for obj in shared}, [bound], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += np.ndarray.__basicsize__ if isinstance(obj, np.ndarray) else sys.getsizeof(obj)
        if isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, functools.partial):
            todo += [obj.args, obj.keywords]
        elif hasattr(obj, "__self__"):
            # a bound method, and the array it was bound to
            todo.append(obj.__self__)
    return total


class _DenseMarch:
    """What a dense march over ``num_rows`` rows of basis count m at size n
    needs besides ``a`` and its element counts: each element's right-hand
    sides and coefficients, the systems, views of them, ``load`` shaped to
    scale each right-hand side block, and the solve kernel.

    ``per_col`` holds the coefficients as (column, basis, row), one contiguous
    (m, n) block per column, evaluated at +1; the solve writes them through
    ``coeffs``, a view that orders each row's (basis, row) x column block by
    columns.  ``written`` lists the arrays that every call writes before it
    reads them.
    """

    def __init__(self, key, n, tables, num_rows):
        self.key = key
        m = tables.m
        self.rhs = np.empty((num_rows, m * n, n), dtype=np.complex128)
        self.per_col = np.empty((num_rows, 1, n, m, n), dtype=np.complex128)
        self.coeffs = self.per_col.transpose(0, 1, 3, 4, 2).reshape(self.rhs.shape)
        self.systems = np.empty((num_rows, m * n, m * n), dtype=np.complex128)
        self.written = [self.rhs, self.per_col, self.systems]
        self.load = tables.load[:, None, None]
        self.identity = np.eye(n, dtype=np.complex128)[None, None]
        self.identity.setflags(write=False)
        self.solve = functools.partial(_umath_linalg.solve, signature="DD->D")
        # what the store counts; bind adds what it makes
        self.nbytes = sum(array.nbytes for array in self.written) + self.identity.nbytes
        # bind's results by count of active rows
        self.bound = {}

    def bind(self, num_active):
        """``(rhs, rhs_blocks, coeffs, per_col, systems)`` of the first
        ``num_active`` rows, kept in ``bound``, ``rhs_blocks`` being ``rhs`` as
        (basis, row, column) blocks; one row's are its own views, as for a
        single count."""
        m, n = self.load.shape[0], self.rhs.shape[-1]
        if num_active == 1:
            rhs = self.rhs[0]
            bound = rhs, rhs.reshape(m, n, n), self.coeffs[0], self.per_col[0, 0], self.systems[0]
        else:
            rhs = self.rhs[:num_active]
            bound = (rhs, rhs.reshape(num_active, m, n, n), self.coeffs[:num_active],
                     self.per_col[:num_active], self.systems[:num_active])
        self.bound[num_active] = bound
        self.nbytes += _held_bytes(bound, ())
        return bound


def _dense_propagate(a: np.ndarray, rows):
    """The dense solve: ``psi`` after each row's count of elements from the
    identity, for ``(num_elements, tables)`` rows of one basis count with
    element counts in descending order.

    Rows sit on the leading axis of the systems, of the states, which stack
    as (rows, 1, n, n) (``assemble_rhs``), and of the arrays that each
    element writes, which come from a kept march (``_DenseMarch``).
    """
    n = a.shape[0]
    tables = rows[0][1]
    element_counts = [count for count, _ in rows]
    key = ("dense", n, tables.m, len(rows))
    march = _kept_marches.take(key) or _DenseMarch(key, n, tables, len(rows))
    # the identity broadcasts over the rows until the first element
    psi = march.identity

    def solve_checked(system, b, out):
        with _raising_singular():
            march.solve(system, b, out=out)

    results = []
    # the first element, where every row is active, solves under np.linalg.solve's
    # errstate, which raises LinAlgError on an exactly singular system.  Each later
    # element calls the kernel bare: it factors the same systems again, with the
    # same pivots and so none of them zero, and returns bitwise the same solution
    solve = solve_checked
    try:
        # equal elements of width 1/E map onto [-1, 1] with scale 2E
        assemble_system(a, 2.0 * np.array(element_counts, dtype=float), tables, out=march.systems)
        for rows, elements in _segments(element_counts):
            rhs, rhs_blocks, coeffs, per_col, system = march.bound.get(rows) or march.bind(rows)
            psi = psi[0, 0] if rows == 1 else psi[:rows]
            for _ in range(elements):
                # assemble_rhs with its out view and load[:, None, None] bound
                np.multiply(march.load, c_einsum("ik,...kj->...ij", a, psi), out=rhs_blocks)
                solve(system, rhs, out=coeffs)
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


def _pencil_price(n: int, p: int, m: int, num_rows: int, num_blocks: int) -> int:
    """The most bytes a pencil march over ``num_rows`` rows and ``num_blocks``
    basis steps, ``m`` the largest count, keeps: its arrays and its bound calls.

    Its arrays are the ``num_blocks`` complex n x n shifted blocks; per row
    its ``m + 1`` state blocks, u and the right-hand side; and ``forms``,
    ``a`` and then the inverses in the march's form (for ``p = 2`` real forms,
    of four times the entries at half the bytes each).  Besides them it keeps,
    at their largest, a right-aligned coupling matrix per row, ``p (m + 1)``
    square at ``16 / p`` bytes an entry, and per block a shift and a row
    index, 24 bytes; and its bound calls (``_PencilMarch.bind``), priced
    below.  ``expm_each`` admits rows at this price, with ``num_rows m``
    blocks, and a march counts at most its price (``nbytes``) while its bound
    calls take at most 1 KiB each on average.
    """
    blocks = num_blocks + num_rows * (m + 1) + 2 * num_rows + p * (num_blocks + 1)
    # bind makes one set per count of active rows, at most num_rows: m steps, an
    # end per run of one basis count, so at most k for k active rows, and the
    # set itself, each priced at 1 KiB.  An n = 5 element sweep binds 0.97 KiB
    # on average (_held_bytes, CPython 3.11); rows of several basis counts from
    # m = 40 down, bound at every count, up to 1.03 KiB
    bound = 1024 * (num_rows * m + num_rows * (num_rows + 1) // 2 + num_rows)
    return 16 * n * n * blocks + 16 * p * num_rows * (m + 1) ** 2 + 24 * num_blocks + bound


class _PencilMarch:
    """What a pencil march needs besides ``a`` and its element counts, for
    rows of given basis counts at size n: its arrays, the shifts and coupling
    rows sliced from its tables once, when it is built, and, per count of
    active rows, one element's bound calls (``bind``).  ``written`` lists the
    arrays that every call writes before it reads them.

    Row r's basis step k sits at position ``m - m_r + k`` of its arrays and
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
        num_blocks, num_rows = self.offsets[-1], len(rows)
        # shifted: the diagonal blocks of the triangularised system, one per
        # basis step and row, inverted as complex matrices
        self.shifted = np.empty((num_blocks, n, n), dtype=np.complex128)
        self.diagonals = self.shifted.reshape(num_blocks, n * n)[:, ::n + 1]
        self.state = np.empty((num_rows, p * (m + 1), n * n), dtype=dtype)
        # psi's diagonal in the flattened (real part of the) state
        self.psi_diagonal = self.state[:, p * m, ::n + 1]
        self.u_rows = np.empty((num_rows, p, n * n), dtype=dtype)
        self.rhs = np.empty((num_rows, p * n, n), dtype=dtype)
        # a and the inverses in the march's form, back to back
        self.forms = np.empty((num_blocks + 1, p * n, p * n), dtype=dtype)
        self.a_form, self.inverse = self.forms[0], self.forms[1:]
        # where each call writes a and the inverse kernel the inverses: for
        # complex operands forms itself, and for real forms a complex stage of
        # the same layout over the start of the state, which one real_form call
        # embeds into forms.  The state's num_rows (m + 1) blocks hold its
        # num_blocks + 1, as no row has more than m basis steps, and each call
        # sets the state only after it has read the stage
        self.stage = self.forms if p == 1 else np.ndarray((num_blocks + 1, n, n), np.complex128, self.state)
        self.staged_inverse = self.stage[1:]
        self.invert = functools.partial(_umath_linalg.inv, signature="D->D")
        self.blocks = self.state.reshape(num_rows, m + 1, p * n, n)
        self.u_blocks = self.u_rows.reshape(num_rows, p * n, n)
        self.written = [self.shifted, self.state, self.u_rows, self.rhs, self.forms]
        # what the store counts: these arrays and those kept besides them; bind
        # adds what it makes
        self.nbytes = sum(array.nbytes for array in self.written + kept)
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
        for k in range(m - 1, -1, -1):
            rows_k = min(num_active, self.active[k])
            offset = self.offsets[k]
            if rows_k == 1:
                # ndarray.dot bound once skips np.dot's dispatch, dearer than the
                # arithmetic at small n; every output is C-contiguous and aliases no input
                steps.append((first_steps[k].dot, state[0, p * k + p:], u_rows[0], self.a_form.dot,
                              self.u_blocks[0], self.rhs[0], self.inverse[offset].dot, self.blocks[0, k]))
                continue
            # rows of one basis count share the first row's coupling rows, which
            # broadcast over however many rows are active
            coupling = (first_steps[k] if len(self.runs) == 1
                        else self.coupling[:rows_k, p * k:p * k + p, p * k + p:])
            steps.append((functools.partial(np.matmul, coupling), state[:rows_k, p * k + p:], u_rows[:rows_k],
                          times_a, self.u_blocks[:rows_k], self.rhs[:rows_k],
                          functools.partial(np.matmul, self.inverse[offset:offset + rows_k]),
                          self.blocks[:rows_k, k]))
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
        self.nbytes += _held_bytes(bound, [self.a_form, *self.first_steps])
        return bound


def _pencil_propagate(a: np.ndarray, rows):
    """The pencil solve: ``psi`` after each row's count of elements from the
    identity, for ``(num_elements, tables)`` rows whose basis and element
    counts both descend.

    Per row, the state stacks ``[Y[0] ... Y[m - 1], psi]``; coupling row
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
        # the bound calls read a and the inverses from the march's own memory
        march.stage[0] = a
        with _raising_singular():
            march.invert(march.shifted, out=march.staged_inverse)
        if p == 2:
            real_form(march.stage, out=march.forms)
        # the state holds whatever its last march left, and the stage lies over
        # its start, so the whole state is set, psi = I
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
