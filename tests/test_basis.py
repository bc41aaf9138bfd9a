import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from chebyshev_oracle import chebyshev_t, integrated_chebyshev
from fetexpm import build_tables


def quadrature_tables(m, num_nodes=64):
    """Weighted-projection tables by Gauss-Chebyshev quadrature.

    Nodes cos((2k-1) pi / (2 N)) with equal weights pi / N integrate
    f(tau) / sqrt(1 - tau^2) exactly for polynomial f up to degree 2N - 1,
    absorbing the endpoint singularities of the weight.
    """
    k = np.arange(1, num_nodes + 1)
    tau = np.cos((2 * k - 1) * np.pi / (2 * num_nodes))
    w = np.pi / num_nodes
    # local recurrence for the polynomials, independent of the package code
    t_vals = np.zeros((m + 1, num_nodes))
    t_vals[0] = 1.0
    if m >= 1:
        t_vals[1] = tau
    for mu in range(2, m + 1):
        t_vals[mu] = 2.0 * tau * t_vals[mu - 1] - t_vals[mu - 2]
    s_vals = np.array(
        [[integrated_chebyshev(mu, t) for t in tau] for mu in range(m)]
    )
    deriv = w * (s_vals @ t_vals[:m].T)
    overlap = w * (s_vals @ s_vals.T)
    load = w * s_vals.sum(axis=1)
    return deriv, overlap, load


def simpson_integral(f, lo, hi, panels=4000):
    x = np.linspace(lo, hi, 2 * panels + 1)
    y = np.array([f(t) for t in x])
    h = (hi - lo) / (2 * panels)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def test_chebyshev_known_values():
    assert chebyshev_t(0, 0.3) == 1.0
    assert chebyshev_t(2, 0.5) == -0.5
    assert chebyshev_t(7, -1.0) == -1.0
    assert chebyshev_t(6, -1.0) == 1.0


def test_chebyshev_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chebyshev_t(3, 1.5)
    with pytest.raises(ValueError):
        chebyshev_t(-1, 0.0)


def test_integrated_vanishes_at_left_endpoint_exactly():
    for mu in range(40):
        assert integrated_chebyshev(mu, -1.0) == 0.0


def test_integrated_values_at_right_endpoint():
    assert integrated_chebyshev(0, 1.0) == 2.0
    assert integrated_chebyshev(1, 1.0) == 0.0
    assert abs(integrated_chebyshev(4, 1.0) - (-2.0 / 15.0)) <= 1e-16


def test_integrated_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrated_chebyshev(2, -1.0001)
    with pytest.raises(ValueError):
        integrated_chebyshev(-1, 0.0)


def test_integrated_matches_direct_quadrature_of_polynomial():
    for mu in range(7):
        for tau in (-0.3, 0.2, 1.0):
            direct = simpson_integral(lambda t: chebyshev_t(mu, t), -1.0, tau)
            assert abs(integrated_chebyshev(mu, tau) - direct) <= 1e-12


def test_integrated_derivative_recovers_polynomial():
    h = 1e-5
    for mu in range(9):
        for tau in (-0.9, 0.0, 0.7):
            slope = (
                integrated_chebyshev(mu, tau + h) - integrated_chebyshev(mu, tau - h)
            ) / (2.0 * h)
            assert abs(slope - chebyshev_t(mu, tau)) <= 1e-8


def test_tables_closed_form_entries():
    tables = build_tables(3)
    assert tables.load[0] == np.pi
    assert_allclose(tables.deriv[0, 1], np.pi / 2.0, rtol=1e-15)
    assert_allclose(tables.overlap[0, 0], 1.5 * np.pi, rtol=1e-15)


def test_tables_match_quadrature_for_all_sizes():
    for m in range(1, 41):
        tables = build_tables(m)
        deriv_q, overlap_q, load_q = quadrature_tables(m)
        assert np.max(np.abs(tables.deriv - deriv_q)) <= 1e-13
        assert np.max(np.abs(tables.overlap - overlap_q)) <= 1e-13
        assert np.max(np.abs(tables.load - load_q)) <= 1e-13


def test_overlap_symmetric_exactly():
    tables = build_tables(40)
    assert np.max(np.abs(tables.overlap - tables.overlap.T)) == 0.0


def test_load_is_first_column_of_deriv():
    tables = build_tables(17)
    assert_array_equal(tables.load, tables.deriv[:, 0])


def test_end_values():
    tables = build_tables(12)
    assert tables.end_vals[0] == 2.0
    assert tables.end_vals[1] == 0.0
    for mu in range(3, 12, 2):
        assert tables.end_vals[mu] == 0.0
    for mu in range(2, 12, 2):
        assert tables.end_vals[mu] == -2.0 / (mu * mu - 1.0)
    direct = np.array([integrated_chebyshev(mu, 1.0) for mu in range(12)])
    assert np.max(np.abs(tables.end_vals - direct)) <= 2e-16


def test_tables_reject_bad_size():
    with pytest.raises(ValueError):
        build_tables(0)
