"""Accuracy studies: minimum-basis searches and single-parameter sweeps."""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .matio import as_complex_matrix
from .oracles import EXACT_EXPM, NAMED_MATRICES, expm_taylor_squaring
from .propagator import expm

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
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    max_basis = operator.index(max_basis)
    if max_basis < 1:
        raise ValueError(f"max_basis must be >= 1, got {max_basis}")
    a = as_complex_matrix(a)
    reference = as_complex_matrix(reference)
    if a.shape != reference.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {reference.shape}")
    for m in range(1, max_basis + 1):
        report = expm(a, num_elements=num_elements, num_basis=m)
        # the largest entrywise error; both operands were checked and shaped above
        if np.max(np.abs(report.result - reference)) <= tolerance:
            return m
    return None


def table1(which: str, tolerance: float = 1e-14, max_basis: int = 40):
    """Minimum-basis search over the study's element counts for one matrix.

    Returns (num_elements, min_basis-or-None) pairs for the matrices with
    exactly known exponentials: ``unit2``, ``m1`` or ``m2``.
    """
    if which not in TABLE1_STEPS:
        raise ValueError(f"unknown study matrix {which!r}; pick from {sorted(TABLE1_STEPS)}")
    a = NAMED_MATRICES[which]()
    reference = EXACT_EXPM[which]()
    return [
        (steps, min_basis_for_tolerance(a, reference, steps, tolerance, max_basis))
        for steps in TABLE1_STEPS[which]
    ]


def sweep(a, entry, vary: str = "elements", fixed: int = 8, lo: int = 5, hi: int = 40):
    """Hold one of (elements, basis) at ``fixed`` and vary the other over [lo, hi].

    ``entry`` is a 0-based (row, column) pair whose value is recorded per
    run; errors are measured against the Taylor scaling-and-squaring
    reference, which exists for any matrix.
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
    rows = []
    for value in range(lo, hi + 1):
        num_elements, num_basis = (value, fixed) if vary == "elements" else (fixed, value)
        report = expm(a, num_elements=num_elements, num_basis=num_basis)
        rows.append(
            StudyRow(
                num_elements=num_elements,
                num_basis=num_basis,
                max_abs_error=float(np.max(np.abs(report.result - reference))),
                selected_entry=complex(report.result[row, col]),
            )
        )
    return rows
