import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fetexpm import (
    assemble_rhs,
    assemble_system,
    build_factorization,
    build_tables,
    expm,
    expm_taylor_squaring,
    exact_m1,
    lu_solve,
    m1,
    m2,
    max_abs_diff,
    propagate_element,
)


def random_unit_disk(rng, n):
    re = rng.uniform(-1.0, 1.0, (n, n))
    im = rng.uniform(-1.0, 1.0, (n, n))
    bad = re * re + im * im > 1.0
    while bad.any():
        re[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        im[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        bad = re * re + im * im > 1.0
    return re + 1j * im


def brute_force_system(a, scale, tables):
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


def test_system_for_zero_matrix_is_scaled_kron():
    tables = build_tables(3)
    zero = np.zeros((4, 4))
    system = assemble_system(zero, 6.0, tables)
    assert_array_equal(system, 6.0 * np.kron(tables.deriv, np.eye(4)))


def test_system_scalar_case_closed_form():
    tables = build_tables(1)
    alpha = 0.7 - 0.2j
    system = assemble_system([[alpha]], 2.0, tables)
    assert system.shape == (1, 1)
    assert_allclose(system[0, 0], 2.0 * np.pi - alpha * 1.5 * np.pi, rtol=1e-15)


def test_assembly_matches_nested_loops_exactly():
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            a = random_unit_disk(rng, n)
            psi = random_unit_disk(rng, n)
            tables = build_tables(m)
            scale = 16.0
            system = assemble_system(a, scale, tables)
            assert (system == brute_force_system(a, scale, tables)).all()
            rhs = assemble_rhs(a, psi, tables.load)
            assert rhs.shape == (n * m, n)
            for col in range(n):
                assert (rhs[:, col] == brute_force_rhs(a, psi, tables.load, col)).all()


def test_rhs_identity_state_picks_matrix_column():
    tables = build_tables(3)
    rng = np.random.default_rng(8)
    a = random_unit_disk(rng, 2)
    rhs = assemble_rhs(a, np.eye(2), tables.load)
    for col in range(2):
        assert_array_equal(rhs[:, col], np.kron(tables.load, a[:, col]))


def test_rhs_zero_matrix_gives_zero():
    tables = build_tables(4)
    rhs = assemble_rhs(np.zeros((3, 3)), np.eye(3), tables.load)
    assert_array_equal(rhs, np.zeros((12, 3)))


def test_rhs_rejects_bad_column():
    # a state whose column count does not match the matrix
    tables = build_tables(2)
    with pytest.raises(ValueError):
        assemble_rhs(np.eye(2), np.ones((2, 3)), tables.load)


def test_propagation_of_zero_matrix_keeps_state():
    rng = np.random.default_rng(77)
    psi = random_unit_disk(rng, 3)
    fact = build_factorization(np.zeros((3, 3)), 4.0, build_tables(5))
    assert (propagate_element(fact, np.zeros((3, 3)), psi) == psi).all()


def test_single_element_scalar_exponential():
    report = expm([[1.0]], num_elements=1, num_basis=12)
    assert abs(report.result[0, 0] - math.e) <= 1e-14


def test_one_narrow_element_rotates_by_its_width():
    # one element of width 1/8 advances the rotation generator by 1/8 radian
    fact = build_factorization(m2(), 16.0, build_tables(8))
    psi = propagate_element(fact, m2(), np.eye(2, dtype=complex))
    c, s = math.cos(0.125), math.sin(0.125)
    assert_allclose(psi, [[c, -s], [s, c]], atol=1e-15)


def test_zero_matrix_is_exact_fixed_point():
    zero = np.zeros((3, 3))
    eye = np.eye(3, dtype=complex)
    for num_elements in (1, 2, 5, 16):
        for num_basis in (1, 3, 8, 16):
            report = expm(zero, num_elements=num_elements, num_basis=num_basis)
            assert (report.result == eye).all()


def test_stiff_matrix_at_sixteen_elements_six_functions():
    report = expm(m1(), num_elements=16, num_basis=6)
    assert max_abs_diff(report.result, exact_m1()) <= 1e-14


def test_group_inverse_and_determinant_properties():
    rng = np.random.default_rng(314)
    eye = np.eye(4)
    for _ in range(10):
        a = random_unit_disk(rng, 4)
        full = expm(a).result
        half = expm(a / 2.0).result
        assert max_abs_diff(full, half @ half) <= 1e-11
        assert max_abs_diff(full @ expm(-a).result, eye) <= 1e-11


def test_matches_series_reference_at_spectral_norm_two():
    rng = np.random.default_rng(2718)
    for complex_case in (False, True):
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            if complex_case:
                a = a + 1j * rng.standard_normal((4, 4))
            a *= 2.0 / np.linalg.norm(a, 2)
            err = max_abs_diff(expm(a).result, expm_taylor_squaring(a))
            assert err <= 1e-12


def test_reusing_one_factorization_equals_refactoring_per_element():
    rng = np.random.default_rng(555)
    a = random_unit_disk(rng, 3)
    report = expm(a, num_elements=5, num_basis=6)
    tables = build_tables(6)
    psi = np.eye(3, dtype=complex)
    for _ in range(5):
        fresh = build_factorization(a, 10.0, tables)
        psi = propagate_element(fresh, a, psi)
    assert (report.result == psi).all()


def per_column_step(fact, a, psi_prev):
    """Reference element step: one vector solve and one end-value update per column."""
    n, m = fact.n, fact.m
    psi_new = psi_prev.copy()
    for col in range(n):
        rhs = np.kron(fact.tables.load, np.einsum("ik,k->i", a, psi_prev[:, col]))
        coeffs = lu_solve(fact.system_lu, rhs)
        psi_new[:, col] += fact.tables.end_vals @ coeffs.reshape(m, n)
    return psi_new


def test_batched_step_matches_per_column_reference_bitwise():
    rng = np.random.default_rng(909)
    for n in (2, 3, 4, 8):
        for m in (1, 5, 8, 16):
            a = random_unit_disk(rng, n)
            psi = random_unit_disk(rng, n)
            fact = build_factorization(a, 2.0 * n + 4.0, build_tables(m))
            batched = propagate_element(fact, a, psi)
            assert batched.tobytes() == per_column_step(fact, a, psi).tobytes()


def test_column_solves_share_factorization_across_threads():
    rng = np.random.default_rng(404)
    a = random_unit_disk(rng, 4)
    fact = build_factorization(a, 16.0, build_tables(6))
    rhs = assemble_rhs(a, random_unit_disk(rng, 4), fact.tables.load)
    batched = lu_solve(fact.system_lu, rhs)

    def solve_column(col):
        return col, lu_solve(fact.system_lu, rhs[:, col])

    with ThreadPoolExecutor(max_workers=4) as pool:
        for col, coeffs in pool.map(solve_column, range(4)):
            assert (coeffs == batched[:, col]).all()


def test_residual_diagnostics_are_small_and_per_element():
    report = expm(m1())
    assert len(report.residuals) == 8
    assert all(r < 1e-10 for r in report.residuals)
    assert all(math.isfinite(r) for r in report.residuals)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm(np.eye(2), num_elements=0)
    with pytest.raises(ValueError):
        expm(np.eye(2), num_basis=0)


def test_overflowing_assembly_is_reported():
    with pytest.raises(OverflowError):
        expm([[1e308]])
