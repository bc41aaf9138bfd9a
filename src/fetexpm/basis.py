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
"""

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
    if m >= 1:
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


def build_tables(m: int) -> BasisTables:
    """Build the projection tables for the first ``m`` basis functions."""
    m = int(m)
    if m < 1:
        raise ValueError("basis count must be >= 1")
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
