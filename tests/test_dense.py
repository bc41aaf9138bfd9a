import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fetexpm import (
    SingularMatrixError,
    as_complex_matrix,
    lu_factor,
    lu_solve,
    max_abs_diff,
)


def random_unit_disk(rng, n):
    """n x n matrix with every entry drawn uniformly from the complex unit disk."""
    re = rng.uniform(-1.0, 1.0, (n, n))
    im = rng.uniform(-1.0, 1.0, (n, n))
    bad = re * re + im * im > 1.0
    while bad.any():
        re[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        im[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        bad = re * re + im * im > 1.0
    return re + 1j * im


def reconstruct(fact):
    lower = np.tril(fact.packed_lu, -1) + np.eye(fact.n)
    upper = np.triu(fact.packed_lu)
    return lower @ upper


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[complex(0.0, np.inf)]])


def test_lu_identity():
    fact = lu_factor(np.eye(3))
    assert_array_equal(fact.packed_lu, np.eye(3))
    assert_array_equal(fact.pivot_permutation, [0, 1, 2])


def test_lu_permutation_matrix_needs_one_swap():
    fact = lu_factor([[0.0, 1.0], [1.0, 0.0]])
    assert_array_equal(fact.pivot_permutation, [1, 0])
    assert_array_equal(fact.packed_lu, np.eye(2))


def test_lu_reconstruction_random_5x5():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    fact = lu_factor(a)
    assert max_abs_diff(a[fact.pivot_permutation], reconstruct(fact)) < 1e-13


def test_lu_reconstruction_family_up_to_16():
    rng = np.random.default_rng(16)
    for n in range(1, 17):
        a = random_unit_disk(rng, n)
        fact = lu_factor(a)
        assert sorted(fact.pivot_permutation) == list(range(n))
        bound = 1e-12 * np.max(np.abs(a))
        assert max_abs_diff(a[fact.pivot_permutation], reconstruct(fact)) <= bound


def test_lu_rejects_non_square_and_singular():
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(SingularMatrixError):
        lu_factor([[1.0, 2.0], [2.0, 4.0]])


def test_solve_identity_returns_rhs():
    fact = lu_factor(np.eye(4))
    rhs = np.array([1.0 + 2.0j, -3.0, 0.5j, 4.0])
    assert_array_equal(lu_solve(fact, rhs), rhs)


def test_solve_diagonal_scaling():
    fact = lu_factor(2.0 * np.eye(2))
    assert_array_equal(lu_solve(fact, [4.0, 6.0]), [2.0, 3.0])


def test_solve_random_residual():
    rng = np.random.default_rng(99)
    for n in (2, 5, 11, 16):
        a = random_unit_disk(rng, n) + 2.0 * np.eye(n)  # keep it well conditioned
        b = random_unit_disk(rng, n)[0]
        x = lu_solve(lu_factor(a), b)
        residual = np.max(np.abs(a @ x - b))
        assert residual < 1e-12 * np.max(np.abs(b))


def test_solve_roundtrip_through_mat_mul():
    rng = np.random.default_rng(123)
    for n in range(1, 17):
        a = random_unit_disk(rng, n) + 1.5 * np.eye(n)
        b = random_unit_disk(rng, n)[:, 0]
        x = lu_solve(lu_factor(a), b)
        back = a @ x
        assert np.max(np.abs(back - b)) <= 1e-12 * np.max(np.abs(b))


def test_solve_matrix_rhs_equals_stacked_column_solves():
    # k >= 2 only: with a single column numpy may take another inner loop
    # for the complex product, which can round differently in the last bit
    rng = np.random.default_rng(321)
    for n in (2, 5, 16):
        fact = lu_factor(random_unit_disk(rng, n) + 1.5 * np.eye(n))
        for k in (2, 3, n):
            b = random_unit_disk(rng, max(n, k))[:n, :k]
            stacked = np.stack([lu_solve(fact, b[:, col]) for col in range(k)], axis=1)
            assert lu_solve(fact, b).tobytes() == stacked.tobytes()


def test_solve_length_mismatch():
    fact = lu_factor(np.eye(3))
    with pytest.raises(ValueError):
        lu_solve(fact, [1.0, 2.0])
    with pytest.raises(ValueError):
        lu_solve(fact, np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_solve(fact, np.ones((3, 3, 1)))


def test_max_abs_diff_basics():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(np.eye(2), np.zeros((2, 2))) == 1.0
    with pytest.raises(ValueError):
        max_abs_diff(np.eye(2), np.eye(3))


def test_max_abs_diff_between_published_reference_matrices():
    # two renderings of the same stiff exponential that differ in the last
    # couple of printed digits; their distance pins the metric's behaviour
    exact_print = [[-0.7357588823012208, 0.5518191617363316],
                   [-1.4715177646302175, 1.1036383234865511]]
    run_print = [[-0.7357588823012181, 0.5518191617363358],
                 [-1.4715177646302120, 1.1036383234865592]]
    d = max_abs_diff(exact_print, run_print)
    assert 8.0e-15 <= d <= 8.4e-15
