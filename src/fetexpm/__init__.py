"""Matrix exponentials by finite elements in artificial time.

The exponential of a square complex matrix is computed as the endpoint of
an initial-value problem integrated over a unit artificial-time interval,
using finite elements in time and an integrated-Chebyshev basis on each
element.  ``expm`` is the main entry point; ``expm_taylor_squaring`` is an
independent reference implementation used for validation.

The paper's accuracy studies live in ``fetexpm.studies`` and the built-in
test matrices with their exact exponentials in ``fetexpm.oracles``.
"""

from .dense import as_complex_matrix, max_abs_diff
from .matio import MatrixParseError, format_matrix, load_matrix, parse_matrix
from .oracles import expm_taylor_squaring
from .propagator import ExpmReport, expm

__version__ = "2.0.0"

__all__ = [
    "ExpmReport",
    "MatrixParseError",
    "as_complex_matrix",
    "expm",
    "expm_taylor_squaring",
    "format_matrix",
    "load_matrix",
    "max_abs_diff",
    "parse_matrix",
]
