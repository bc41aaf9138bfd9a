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

``BasisTables.pencil`` triangularises ``deriv^-1 overlap`` with one unitary
matrix, a Schur form built by deflation with numpy alone, on first use and
then kept with the tables.  It lets the element solve for all but the
smallest matrices back-substitute over the basis index (see ``propagator``).
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
    coeffs[0, 0] = 1.0
    coeffs[0, 1] = 1.0
    if m >= 2:
        coeffs[1, 0] = -0.25
        coeffs[1, 2] = 0.25
    for mu in range(2, m):
        sign = -1.0 if mu % 2 == 0 else 1.0
        coeffs[mu, mu + 1] = 0.5 / (mu + 1)
        coeffs[mu, mu - 1] = -0.5 / (mu - 1)
        coeffs[mu, 0] = -0.5 * (sign / (mu + 1) - sign / (mu - 1))
    return coeffs


@dataclass(frozen=True)
class PencilSchur:
    """Schur form of ``T = deriv^-1 overlap``, the pencil ``(deriv, overlap)`` of one basis size.

    u        -- unitary (m x m) with ``u @ r @ u^H == T`` up to rounding
    r        -- ``u^H T u``, exactly upper triangular
    load     -- ``u^H deriv^-1 load == conj(u[0, :])``, since ``load`` is the
                first column of ``deriv``
    end_vals -- ``u^T end_vals``, the end values in the transformed basis

    Like the tables it depends only on ``m`` and is immutable.
    """

    u: np.ndarray
    r: np.ndarray
    load: np.ndarray
    end_vals: np.ndarray


@dataclass(frozen=True)
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
    def pencil(self) -> PencilSchur:
        """Schur form of ``deriv^-1 overlap``, built once per tables."""
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
        # the entries below the diagonal are rounding leakage of order 1e-16
        r = np.triu(r)
        load = u[0].conj()
        end_vals = u.T @ self.end_vals
        for arr in (u, r, load, end_vals):
            arr.setflags(write=False)
        return PencilSchur(u=u, r=r, load=load, end_vals=end_vals)


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
    end_vals = np.zeros(m)
    end_vals[0] = 2.0
    for mu in range(2, m, 2):
        end_vals[mu] = -2.0 / (mu * mu - 1.0)
    for arr in (deriv, overlap, load, end_vals):
        arr.setflags(write=False)
    return BasisTables(m=m, deriv=deriv, overlap=overlap, load=load, end_vals=end_vals)
