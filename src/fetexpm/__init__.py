"""Matrix exponentials by finite elements in artificial time.

The exponential of a square complex matrix is computed as the endpoint of
an initial-value problem integrated over a unit artificial-time interval,
using finite elements in time and an integrated-Chebyshev basis on each
element.  The top level holds the method and its check: ``expm`` is the
entry point and returns an ``ExpmReport``; ``expm_taylor_squaring`` is an
independent reference implementation used for validation.

Matrices in and out, the input check and the plain-text file format, live
in ``fetexpm.matio``; the paper's accuracy studies in ``fetexpm.studies``;
the built-in test matrices with their exact exponentials in
``fetexpm.oracles``.
"""

from .oracles import expm_taylor_squaring
from .propagator import ExpmReport, expm

__version__ = "4.0.0"

__all__ = ["ExpmReport", "expm", "expm_taylor_squaring"]
