"""Pointwise Chebyshev evaluators: the test suite's oracle for the basis tables.

``fetexpm.basis`` builds its projection tables in closed form from
Chebyshev coefficients.  These functions evaluate the same polynomials and
their running integrals point by point, so quadrature over them gives an
independent check of every table entry.
"""


def _check_local_time(tau: float) -> float:
    tau = float(tau)
    if not -1.0 <= tau <= 1.0:
        raise ValueError(f"local time {tau} outside [-1, 1]")
    return tau


def chebyshev_t(mu: int, tau: float) -> float:
    """Chebyshev polynomial of the first kind, degree ``mu``, at ``tau``.

    Evaluated by the three-term forward recurrence, which is stable on
    [-1, 1]; arguments outside the interval are rejected.
    """
    tau = _check_local_time(tau)
    if mu < 0:
        raise ValueError("degree must be non-negative")
    prev, cur = 1.0, tau
    if mu == 0:
        return prev
    for _ in range(mu - 1):
        prev, cur = cur, 2.0 * tau * cur - prev
    return cur


def integrated_chebyshev(mu: int, tau: float) -> float:
    """Integral of the degree-``mu`` Chebyshev polynomial from -1 to ``tau``.

    The closed form is arranged so the value at ``tau = -1`` is exactly zero:
    the endpoint constant is written with the same divisions that produce the
    polynomial terms there.
    """
    tau = _check_local_time(tau)
    if mu < 0:
        raise ValueError("degree must be non-negative")
    if mu == 0:
        return tau + 1.0
    if mu == 1:
        return (tau * tau - 1.0) / 2.0
    hi = chebyshev_t(mu + 1, tau) / (mu + 1)
    lo = chebyshev_t(mu - 1, tau) / (mu - 1)
    sign = -1.0 if mu % 2 == 0 else 1.0  # value of T_{mu+1} and T_{mu-1} at -1
    return 0.5 * (hi - lo) - 0.5 * (sign / (mu + 1) - sign / (mu - 1))
