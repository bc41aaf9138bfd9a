"""Matrix exponentials by finite elements in artificial time.

The exponential of a square complex matrix is computed as the endpoint of
an initial-value problem integrated over a unit artificial-time interval,
using finite elements in time and an integrated-Chebyshev basis on each
element.  ``expm`` is the main entry point; ``expm_taylor_squaring`` is an
independent reference implementation used for validation.
"""

from .dense import as_complex_matrix, max_abs_diff
from .matio import MatrixParseError, format_matrix, load_matrix, parse_matrix
from .oracles import (
    EXACT_EXPM,
    NAMED_MATRICES,
    exact_m1,
    exact_m2,
    exact_unit2,
    expm_taylor_squaring,
    m1,
    m2,
    m3,
    m4,
    unit2,
)
from .propagator import ExpmReport, expm
from .studies import StudyRow, TABLE1_STEPS, min_basis_for_tolerance, sweep, table1

__version__ = "1.0.0"

__all__ = [
    "EXACT_EXPM",
    "ExpmReport",
    "MatrixParseError",
    "NAMED_MATRICES",
    "StudyRow",
    "TABLE1_STEPS",
    "as_complex_matrix",
    "exact_m1",
    "exact_m2",
    "exact_unit2",
    "expm",
    "expm_taylor_squaring",
    "format_matrix",
    "load_matrix",
    "m1",
    "m2",
    "m3",
    "m4",
    "max_abs_diff",
    "min_basis_for_tolerance",
    "parse_matrix",
    "sweep",
    "table1",
    "unit2",
]
