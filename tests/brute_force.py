"""Nested-loop block assembly: the test suite's oracle for ``fetexpm.propagator``.

Each entry of the block system and of its right-hand sides is built one
scalar operation at a time, in the order the vectorised kernels promise, so
the kernels must match these bit for bit.
"""

import numpy as np


def brute_force_system(a, scale, tables):
    """The block system, entry (mu' n + i, mu n + k) computed as
    ``(scale deriv[mu', mu] if i == k else 0) - a[i, k] overlap[mu', mu]``."""
    n = a.shape[0]
    m = tables.m
    out = np.empty((n * m, n * m), dtype=complex)
    for mu_row in range(m):
        for i in range(n):
            for mu_col in range(m):
                for k in range(n):
                    val = (scale * tables.deriv[mu_row, mu_col] if i == k else 0.0)
                    val = val - a[i, k] * tables.overlap[mu_row, mu_col]
                    out[mu_row * n + i, mu_col * n + k] = val
    return out


def brute_force_rhs(a, psi_prev, load, col):
    """Column ``col`` of the right-hand sides: ``load[mu'] (a @ psi_prev)[i, col]``."""
    n = a.shape[0]
    m = len(load)
    out = np.empty(n * m, dtype=complex)
    for mu_row in range(m):
        for i in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += a[i, k] * psi_prev[k, col]
            out[mu_row * n + i] = load[mu_row] * acc
    return out
