import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from chebyshev_oracle import chebyshev_t, integrated_chebyshev
from fetexpm.basis import build_tables, real_form


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
    for bad in (0, -1):
        with pytest.raises(ValueError):
            build_tables(bad)


def test_tables_are_cached_per_checked_count():
    tables = build_tables(8)
    assert build_tables(np.int64(8)) is tables
    # a float hashes equal to the int key, so the cache must sit behind the check
    with pytest.raises(TypeError):
        build_tables(8.0)
    for arr in (tables.deriv, tables.overlap, tables.load, tables.end_vals):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_pencil_schur_triangularises_the_tables():
    for m in range(1, 41):
        tables = build_tables(m)
        coupling = tables.pencil
        assert coupling.shape == (m + 1, m + 1) and coupling.dtype == np.complex128
        r, load_t, end_t = coupling[:m, :m], coupling[:m, m], coupling[m, :m]
        assert (np.tril(r, -1) == 0.0).all()
        # keeps the poles 2 / r[k, k] off |z| <= 1 below, and lets expm's
        # set-up check (1.5 pi a finite) cover every shifted block
        assert np.max(np.abs(np.diagonal(r))) <= 1.5
        # the end row's coefficient on the state is exactly 1, so a
        # non-finite state stays non-finite
        assert coupling[m, m] == 1.0
        # one element of width 1 maps a scalar z's state by
        # 1 + z end_vals^T (2 deriv - z overlap)^-1 load, and in the Schur
        # basis by 1 + z end'^T (2 I - z r)^-1 load'; both are rational of
        # degree m, so agreement at 4m + 4 points pins r, load' and end'
        angles = 2.0 * np.pi * (np.arange(2 * m + 2) + 0.5) / (2 * m + 2)
        for z in np.concatenate([0.5 * np.exp(1j * angles), np.exp(1j * angles)]):
            from_tables = 1.0 + z * tables.end_vals @ np.linalg.solve(
                2.0 * tables.deriv - z * tables.overlap, tables.load
            )
            from_coupling = 1.0 + z * end_t @ np.linalg.solve(2.0 * np.eye(m) - z * r, load_t)
            assert abs(from_coupling - from_tables) <= 1e-14 * abs(from_tables)


def test_real_form_multiplies_stacked_parts():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    real = real_form(z)
    assert real.shape == (3, 8, 8) and real.dtype == np.float64 and real.flags.c_contiguous
    for block, each in zip(z, real):
        x, y = block.real, block.imag
        assert np.array_equal(each, np.block([[x, -y], [y, x]]))
        assert np.array_equal(real_form(block), each)
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        product = each @ np.concatenate((v.real, v.imag))
        np.testing.assert_allclose(product[:4] + 1j * product[4:], block @ v, rtol=0, atol=1e-14)


def test_pencil_slices_are_cached_read_only_views():
    # the shifts and step rows every pencil solve reads are the entries of the
    # coupling matrices themselves, sliced once per tables
    for m in range(1, 41):
        tables = build_tables(m)
        assert_array_equal(tables.pencil_shifts[:, 0, 0], -tables.pencil.diagonal()[:m])
        for p, coupling, steps in ((1, tables.pencil, tables.pencil_steps),
                                   (2, tables.pencil_real, tables.pencil_real_steps)):
            assert len(steps) == m + 1
            for k, rows in enumerate(steps[:m]):
                assert np.shares_memory(rows, coupling) and rows.shape == (p, p * (m - k))
                assert_array_equal(rows, coupling[p * k:p * k + p, p * k + p:])
            assert np.shares_memory(steps[m], coupling) and (steps[m] == coupling[p * m:]).all()
        for cached in ("pencil_shifts", "pencil_steps", "pencil_real_steps"):
            assert getattr(tables, cached) is getattr(tables, cached)
        assert not tables.pencil_shifts.flags.writeable
        assert not any(rows.flags.writeable for rows in tables.pencil_real_steps)


def test_pencil_real_form_is_the_pencil_in_two_by_two_blocks():
    # every coupling entry c becomes [[Re c, -Im c], [Im c, Re c]], exactly,
    # so it combines blocks stored as stacked real and imaginary parts
    for m in range(1, 41):
        tables = build_tables(m)
        coupling, real = tables.pencil, tables.pencil_real
        assert real.shape == (2 * m + 2, 2 * m + 2) and real.dtype == np.float64
        assert (real[0::2, 0::2] == coupling.real).all() and (real[1::2, 1::2] == coupling.real).all()
        assert (real[1::2, 0::2] == coupling.imag).all() and (real[0::2, 1::2] == -coupling.imag).all()
    tables = build_tables(8)
    assert tables.pencil_real is tables.pencil_real and not tables.pencil_real.flags.writeable


def test_pencil_schur_is_cached_and_read_only():
    # the pencil lives on the cached tables, so the count check in
    # build_tables is the only one it needs
    tables = build_tables(8)
    coupling = tables.pencil
    assert type(coupling) is np.ndarray and coupling.shape == (9, 9)
    assert tables.pencil is coupling
    assert build_tables(np.int64(8)).pencil is coupling
    assert not coupling.flags.writeable
    with pytest.raises(ValueError):
        coupling[0] = 1.0
