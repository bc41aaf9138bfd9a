"""Integrated-Chebyshev time basis and its weighted projection tables.

The basis functions are running integrals of Chebyshev polynomials of the
first kind, taken from the left edge of the reference interval [-1, 1], so
every basis function vanishes at -1.  Writing T for the polynomials, the
antiderivative identities are

    integral of T_0  =  T_1 + 1
    integral of T_1  =  (T_2 - T_0) / 4
    integral of T_k  =  T_{k+1} / (2(k+1)) - T_{k-1} / (2(k-1)) + const,  k >= 2

with each constant fixed by the vanishing left endpoint.  Because every
integrated function is again a short Chebyshev combination, projections
against the Chebyshev weight 1/sqrt(1 - tau^2) reduce to the orthogonality
relations (pi for index pair (0, 0), pi/2 for equal nonzero indices, else 0)
and all table entries come out in closed form.  The test suite checks them
against Gauss-Chebyshev quadrature of pointwise-evaluated basis functions;
those pointwise evaluators live there, not here.

``BasisTables.pencil`` is the coupling matrix of the pencil solve: the Schur
form of ``deriv^-1 overlap``, built by deflation with numpy alone, bordered
by the transformed load and end values, and ``BasisTables.pencil_real`` its
real form.  Each is built on first use and then kept with the tables, and
lets the element solve for all but the smallest matrices back-substitute
over the basis index (see ``propagator``).  A pencil march slices its
shifts and coupling rows from them once, when it is built for a layout,
and keeps them between calls.  ``real_form``, that embedding of a complex
matrix in a real one, serves the solve's other operands too.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np


def _integrated_coeffs(m: int) -> np.ndarray:
    """Chebyshev coefficients of the first ``m`` integrated basis functions.

    Row ``mu`` holds the coefficients of basis function ``mu`` in the
    ordinary Chebyshev basis; degree runs up to ``m``, hence ``m + 1``
    columns.
    """
    coeffs = np.zeros((m, m + 1))
    coeffs[0, :2] = 1.0
    # T_1's row on its own: the identity for k >= 2 divides by k - 1
    if m >= 2:
        coeffs[1, [0, 2]] = -0.25, 0.25
    # the identity for k >= 2, its constant fixed by T_{k+1}(-1) = T_{k-1}(-1) = (-1)^(k+1)
    k = np.arange(2, m)
    sign = (-1.0) ** (k + 1)
    coeffs[k, k + 1] = 0.5 / (k + 1)
    coeffs[k, k - 1] = -0.5 / (k - 1)
    coeffs[k, 0] = -0.5 * (sign / (k + 1) - sign / (k - 1))
    return coeffs


def real_form(z: np.ndarray, out=None) -> np.ndarray:
    """The real matrix ``[[X, -Y], [Y, X]]`` of ``z = X + iY``, over its last two axes.

    Its product with the stacked real ``[Re v; Im v]`` is the stacked
    ``[Re z v; Im z v]``: the conventional complex product written as four
    real ones, which keeps its error bound.  ``out``, a float64 array of the
    result's shape, receives every entry and is returned.
    """
    x, y = z.real, z.imag
    rows, cols = z.shape[-2:]
    real = np.empty(z.shape[:-2] + (2 * rows, 2 * cols)) if out is None else out
    real[..., :rows, :cols] = real[..., rows:, cols:] = x
    real[..., rows:, :cols] = y
    np.negative(y, out=real[..., :rows, cols:])
    return real


@dataclass(frozen=True, eq=False)
class BasisTables:
    """Weighted projection tables for a basis of ``m`` integrated functions.

    deriv[i, j]   -- integral of basis_i * weight * T_j        (m x m)
    overlap[i, j] -- integral of basis_i * weight * basis_j    (m x m, symmetric)
    load[i]       -- integral of basis_i * weight              (first column of deriv)
    end_vals[i]   -- basis_i evaluated at +1 (odd indices >= 1 vanish by parity)

    Tables depend only on ``m``; they are immutable and safe to share.
    """

    m: int
    deriv: np.ndarray
    overlap: np.ndarray
    load: np.ndarray
    end_vals: np.ndarray

    # built on first use: at m = 1..40 the pencils cost about a hundred times
    # the tables, and only the pencil solve reads them
    @functools.cached_property
    def pencil(self) -> np.ndarray:
        """The coupling matrix ``[[r, load'], [end', 1]]``, (m + 1) x (m + 1), built once per tables.

        ``r = u^H T u`` is the Schur form of ``T = deriv^-1 overlap``, exactly
        upper triangular, with ``u`` unitary; ``load' = u^H deriv^-1 load ==
        conj(u[0, :])`` as ``load`` is the first column of ``deriv``, and
        ``end' = u^T end_vals`` holds the end values in the transformed basis.
        Like the tables it depends only on ``m`` and is read-only.
        """
        m = self.m
        r = np.linalg.solve(self.deriv, self.overlap).astype(np.complex128)
        u = np.eye(m, dtype=np.complex128)
        for k in range(m - 1):
            # one eigenvector of the trailing block, completed to a unitary,
            # turns that block zero below its first diagonal entry
            _, vecs = np.linalg.eig(r[k:, k:])
            uk, _ = np.linalg.qr(vecs[:, :1], mode="complete")
            r[k:, :] = uk.conj().T @ r[k:, :]
            r[:, k:] = r[:, k:] @ uk
            u[:, k:] = u[:, k:] @ uk
        coupling = np.empty((m + 1, m + 1), dtype=np.complex128)
        # the entries below the diagonal are rounding leakage of order 1e-16
        coupling[:m, :m] = np.triu(r)
        coupling[:m, m] = u[0].conj()
        coupling[m, :m] = u.T @ self.end_vals
        coupling[m, m] = 1.0
        coupling.setflags(write=False)
        return coupling

    @functools.cached_property
    def pencil_real(self) -> np.ndarray:
        """``pencil`` in real form, (2m + 2) x (2m + 2), built once per tables.

        Each entry ``c`` becomes the 2 x 2 block ``[[Re c, -Im c], [Im c, Re c]]``
        (``real_form``), so it combines basis blocks stored as stacked real and
        imaginary parts, as the pencil solve does below
        ``propagator.COMPLEX_MIN_SIZE``.
        """
        m = self.m
        real = real_form(self.pencil[:, :, None, None]).transpose(0, 2, 1, 3)
        real = real.reshape(2 * m + 2, 2 * m + 2)
        real.setflags(write=False)
        return real


def build_tables(m: int) -> BasisTables:
    """Projection tables for the first ``m`` basis functions, built once per ``m``."""
    m = operator.index(m)
    if m < 1:
        raise ValueError("basis count must be >= 1")
    return _cached_tables(m)


# keyed on the checked int: a float key would hash equal to it and skip the
# operator.index check; 64 entries hold a full study scan over m = 1..40
@functools.lru_cache(maxsize=64)
def _cached_tables(m: int) -> BasisTables:
    coeffs = _integrated_coeffs(m)
    weights = np.full(m + 1, np.pi / 2.0)
    weights[0] = np.pi
    deriv = coeffs[:, :m] * weights[:m]
    overlap = (coeffs * weights) @ coeffs.T
    # mirror the lower triangle so symmetry is exact, not just close
    overlap = np.tril(overlap) + np.tril(overlap, -1).T
    load = deriv[:, 0].copy()
    # basis_k(+1): 2 for k = 0, 0 for odd k and -2 / (k^2 - 1) for even k >= 2
    end_vals = np.zeros(m)
    end_vals[0] = 2.0
    end_vals[2::2] = -2.0 / (np.arange(2, m, 2) ** 2 - 1.0)
    for arr in (deriv, overlap, load, end_vals):
        arr.setflags(write=False)
    return BasisTables(m=m, deriv=deriv, overlap=overlap, load=load, end_vals=end_vals)
