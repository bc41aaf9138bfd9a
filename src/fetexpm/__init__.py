"""Matrix exponentials by finite elements in artificial time.

The exponential of a square complex matrix is computed as the endpoint of
an initial-value problem integrated over a unit artificial-time interval,
using finite elements in time and an integrated-Chebyshev basis on each
element.  ``expm`` is the main entry point; ``expm_taylor_squaring`` is an
independent reference implementation used for validation.
"""

from .basis import BasisTables, build_tables
from .dense import (
    LuFactorization,
    SingularMatrixError,
    as_complex_matrix,
    lu_factor,
    lu_solve,
    max_abs_diff,
)
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
from .propagator import ExpmReport, assemble_rhs, assemble_system, expm
from .studies import StudyRow, TABLE1_STEPS, min_basis_for_tolerance, sweep, table1

__version__ = "1.0.0"

__all__ = [
    "BasisTables",
    "EXACT_EXPM",
    "ExpmReport",
    "LuFactorization",
    "MatrixParseError",
    "NAMED_MATRICES",
    "SingularMatrixError",
    "StudyRow",
    "TABLE1_STEPS",
    "as_complex_matrix",
    "assemble_rhs",
    "assemble_system",
    "build_tables",
    "exact_m1",
    "exact_m2",
    "exact_unit2",
    "expm",
    "expm_taylor_squaring",
    "format_matrix",
    "load_matrix",
    "lu_factor",
    "lu_solve",
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
