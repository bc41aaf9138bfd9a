"""Accuracy studies: minimum-basis searches and single-parameter sweeps."""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .matio import as_complex_matrix
from .oracles import EXACT_EXPM, NAMED_MATRICES, expm_taylor_squaring
from .propagator import expm_each

# element counts examined per reference matrix in the minimum-basis study
TABLE1_STEPS = {
    "unit2": (1, 2, 4, 8, 16, 58),
    "m1": (5, 8, 16, 50, 256),
    "m2": (1, 2, 4, 8, 15, 40),
}


@dataclass
class StudyRow:
    """One run of a sweep: parameters, error against the reference, one entry."""

    num_elements: int
    num_basis: int
    max_abs_error: float
    selected_entry: complex


def min_basis_for_tolerance(
    a, reference, num_elements: int, tolerance: float = 1e-14, max_basis: int = 40
) -> int | None:
    """Smallest basis count whose result stays within ``tolerance`` of ``reference``.

    Scans upward from one basis function; returns None when no count up to
    ``max_basis`` reaches the tolerance.
    """
    return _min_basis_search(a, reference, (num_elements,), tolerance, max_basis)[0]


def _min_basis_search(a, reference, element_counts, tolerance, max_basis) -> list:
    """``min_basis_for_tolerance`` for each element count, in the order given.

    For m = 1, 2, ... one ``expm_each`` call marches every count still
    searching; a count leaves once its error meets the tolerance.  Each count
    sees the same basis counts, and so the same results, as a search of its own.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    max_basis = operator.index(max_basis)
    if max_basis < 1:
        raise ValueError(f"max_basis must be >= 1, got {max_basis}")
    a = as_complex_matrix(a)
    reference = as_complex_matrix(reference)
    if a.shape != reference.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {reference.shape}")
    found = [None] * len(element_counts)
    searching = list(range(len(element_counts)))
    for m in range(1, max_basis + 1):
        if not searching:
            break
        results = expm_each(a, [(element_counts[row], m) for row in searching])
        # the largest entrywise error; both operands were checked and shaped above
        for row, result in zip(searching, results):
            if np.max(np.abs(result - reference)) <= tolerance:
                found[row] = m
        searching = [row for row in searching if found[row] is None]
    return found


def table1(which: str, tolerance: float = 1e-14, max_basis: int = 40):
    """Minimum-basis search over the study's element counts for one matrix.

    Returns (num_elements, min_basis-or-None) pairs for the matrices with
    exactly known exponentials: ``unit2``, ``m1`` or ``m2``.
    """
    if which not in TABLE1_STEPS:
        raise ValueError(f"unknown study matrix {which!r}; pick from {sorted(TABLE1_STEPS)}")
    a = NAMED_MATRICES[which]()
    reference = EXACT_EXPM[which]()
    steps = TABLE1_STEPS[which]
    return list(zip(steps, _min_basis_search(a, reference, steps, tolerance, max_basis)))


def sweep(a, entry, vary: str = "elements", fixed: int = 8, lo: int = 5, hi: int = 40):
    """Hold one of (elements, basis) at ``fixed`` and vary the other over [lo, hi].

    ``entry`` is a 0-based (row, column) pair whose value is recorded per
    run; errors are measured against the Taylor scaling-and-squaring
    reference ``expm_taylor_squaring``.  The whole sweep is one
    ``expm_each`` call: a sweep over elements is one march, and so is a
    sweep over basis counts from n = 3, while the dense solve (n <= 2)
    marches each basis count on its own.  Either way each row is bitwise
    what one ``expm`` call at its counts returns.

    Raises
    ------
    ValueError
        If ``vary`` is neither "elements" nor "basis", the range is not
        ``1 <= lo <= hi``, ``fixed`` is below 1, ``a`` is not a non-empty
        square finite matrix or ``entry`` lies outside it; before the
        reference is computed.
    TypeError
        If a count or an index of ``entry`` is not an integer, also before
        the reference.
    OverflowError
        If the reference overflows, which it does wherever the exponential
        leaves the double range: ``sweep([[800.0]], (0, 0))`` raises
        "exponential overflowed to non-finite values".  A row raises as
        ``expm`` does.
    numpy.linalg.LinAlgError
        If a row's block system is exactly singular, as ``expm`` raises.
    """
    if vary not in ("elements", "basis"):
        raise ValueError("vary must be 'elements' or 'basis'")
    lo, hi, fixed = operator.index(lo), operator.index(hi), operator.index(fixed)
    if not 1 <= lo <= hi:
        raise ValueError("range must satisfy 1 <= lo <= hi")
    if fixed < 1:
        raise ValueError("fixed parameter must be >= 1")
    row, col = map(operator.index, entry)
    a = as_complex_matrix(a)
    n = a.shape[0]
    if not (0 <= row < n and 0 <= col < n):
        raise ValueError(f"entry {entry} out of range for size {n}")
    reference = expm_taylor_squaring(a)
    values = range(lo, hi + 1)
    counts = [(count, fixed) if vary == "elements" else (fixed, count) for count in values]
    return [
        StudyRow(
            num_elements=num_elements,
            num_basis=num_basis,
            max_abs_error=float(np.max(np.abs(result - reference))),
            selected_entry=complex(result[row, col]),
        )
        for (num_elements, num_basis), result in zip(counts, expm_each(a, counts))
    ]
