"""Reference exponentials and the built-in test matrices.

The reference algorithm (Taylor series under scaling and squaring) shares
no machinery with the element propagator, so agreement between the two is
meaningful evidence of correctness rather than circular confirmation.  The
exact exponentials are generated from transcendental function calls, never
from embedded digit strings.
"""

import math

import numpy as np

from .dense import as_complex_matrix

# scaled norm below which the Taylor series is summed directly
_TAYLOR_NORM_CAP = 0.5
# stop once the next term falls below this, relative to the running sum
_TAYLOR_RELATIVE_CUTOFF = 1e-18


def expm_taylor_squaring(a) -> np.ndarray:
    """Exponential via Taylor summation of ``a / 2**s`` squared back ``s`` times.

    ``s`` is the smallest shift bringing the max-row-sum norm at or below
    0.5, where the series converges fast enough that its truncation error
    sits below double-precision resolution even after the squarings.  The
    internal arithmetic runs in extended precision where the platform has
    one (80-bit on x86-64): repeated squaring of a stiff matrix loses a few
    digits in plain doubles, and a reference result should not be the
    accuracy bottleneck.  The returned matrix is ordinary complex128.
    """
    a = as_complex_matrix(a)
    n = a.shape[0]
    norm = float(np.max(np.sum(np.abs(a), axis=1)))
    shifts = 0
    while norm > _TAYLOR_NORM_CAP:
        norm /= 2.0
        shifts += 1
    scaled = a.astype(np.clongdouble) / np.longdouble(2.0) ** shifts

    result = np.eye(n, dtype=np.clongdouble)
    term = np.eye(n, dtype=np.clongdouble)
    k = 1
    while True:
        term = term @ scaled / k
        result = result + term
        if np.max(np.abs(term)) <= _TAYLOR_RELATIVE_CUTOFF * np.max(np.abs(result)):
            break
        k += 1
        if k > 64:  # unreachable at norm <= 0.5; guards against a stuck loop
            raise OverflowError("series failed to converge")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(shifts):
            result = result @ result
        out = result.astype(np.complex128)
    if not np.isfinite(out).all():
        raise OverflowError("exponential overflowed to non-finite values")
    return out


def m1() -> np.ndarray:
    """Stiff 2x2 test matrix with eigenvalues -1 and -25."""
    return as_complex_matrix([[-73.0, 36.0], [-96.0, 47.0]])


def m2() -> np.ndarray:
    """Rotation generator: 2x2 with eigenvalues +/- i."""
    return as_complex_matrix([[0.0, -1.0], [1.0, 0.0]])


def m3() -> np.ndarray:
    """5x5 real test matrix without a known closed-form exponential."""
    return as_complex_matrix(
        [
            [-0.1, -0.2, -0.3, -0.4, -0.5],
            [-0.6, -0.7, -0.8, -0.9, -1.0],
            [0.1, 0.2, 0.3, 0.4, 0.5],
            [0.6, 0.7, 0.8, 0.9, 1.0],
            [1.0, 2.0, 3.0, 4.0, 0.0],
        ]
    )


def m4() -> np.ndarray:
    """3x3 complex test matrix without a known closed-form exponential."""
    return as_complex_matrix(
        [
            [1.0 + 1.0j, 1.0 - 1.0j, 1.0j],
            [1.0, 2.0j, 0.0],
            [1.0 + 2.0j, -1.0 + 1.0j, -1.0 - 1.0j],
        ]
    )


def unit2() -> np.ndarray:
    """2x2 identity; its exponential is e on the diagonal."""
    return as_complex_matrix(np.eye(2))


def exact_m1() -> np.ndarray:
    """Closed-form exponential of :func:`m1` from its eigendecomposition."""
    slow = math.exp(-1.0)
    fast = math.exp(-25.0)
    return as_complex_matrix(
        [
            [-2.0 * slow + 3.0 * fast, 1.5 * (slow - fast)],
            [-4.0 * slow + 4.0 * fast, 3.0 * slow - 2.0 * fast],
        ]
    )


def exact_m2() -> np.ndarray:
    """Closed-form exponential of :func:`m2`: rotation by one radian."""
    c, s = math.cos(1.0), math.sin(1.0)
    return as_complex_matrix([[c, -s], [s, c]])


def exact_unit2() -> np.ndarray:
    """Closed-form exponential of the 2x2 identity."""
    return as_complex_matrix(math.e * np.eye(2))


NAMED_MATRICES = {"m1": m1, "m2": m2, "m3": m3, "m4": m4, "unit2": unit2}

# matrices whose exponential is known exactly, keyed like NAMED_MATRICES
EXACT_EXPM = {"m1": exact_m1, "m2": exact_m2, "unit2": exact_unit2}
