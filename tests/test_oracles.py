import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fetexpm import expm_taylor_squaring, max_abs_diff
from fetexpm.oracles import NAMED_MATRICES, exact_m1, exact_m2, exact_unit2, m1, m2, m3, m4, unit2


def test_zero_matrix_gives_identity_exactly():
    assert_array_equal(expm_taylor_squaring(np.zeros((3, 3))), np.eye(3))


def test_diagonal_matrices_exponentiate_elementwise():
    result = expm_taylor_squaring(np.diag([1.0, 2.0]))
    assert_allclose(np.diag(result), [math.e, math.e ** 2], rtol=1e-15)
    assert result[0, 1] == 0.0 and result[1, 0] == 0.0
    for d in np.linspace(-5.0, 5.0, 21):
        r = expm_taylor_squaring(np.diag([d, -d]))
        assert abs(r[0, 0] - math.exp(d)) <= 1e-15 * math.exp(d)
        assert abs(r[1, 1] - math.exp(-d)) <= 1e-15 * math.exp(-d)


def test_rotation_generator_gives_rotation():
    assert max_abs_diff(expm_taylor_squaring(m2()), exact_m2()) <= 1e-15


def test_series_agrees_with_closed_forms():
    assert max_abs_diff(expm_taylor_squaring(m1()), exact_m1()) <= 1e-14
    assert max_abs_diff(expm_taylor_squaring(m2()), exact_m2()) <= 1e-14
    assert max_abs_diff(expm_taylor_squaring(unit2()), exact_unit2()) <= 1e-14


def test_exact_stiff_entries_match_published_digits():
    reference = exact_m1()
    assert abs(reference[0, 0] - (-0.7357588823012208)) <= 2e-16
    assert abs(reference[0, 1] - 0.5518191617363316) <= 2e-16
    assert abs(reference[1, 0] - (-1.4715177646302175)) <= 4e-16
    assert abs(reference[1, 1] - 1.1036383234865511) <= 3e-16


def test_exact_rotation_entries_match_published_digits():
    reference = exact_m2()
    assert abs(reference[0, 0] - 0.5403023058681398) <= 2e-16
    assert abs(reference[1, 0] - 0.8414709848078965) <= 2e-16


def test_exact_rotation_is_orthogonal():
    r = exact_m2()
    assert max_abs_diff(r.T @ r, np.eye(2)) <= 1e-15


def test_similarity_reconstruction_of_stiff_exponential():
    v = np.array([[1.0, 3.0], [2.0, 4.0]])
    v_inv = np.array([[-2.0, 1.5], [1.0, -0.5]])
    rebuilt = v @ np.diag([math.exp(-1.0), math.exp(-25.0)]) @ v_inv
    assert max_abs_diff(rebuilt, exact_m1()) <= 1e-14


def test_named_matrices():
    assert set(NAMED_MATRICES) == {"m1", "m2", "m3", "m4", "unit2"}
    assert m1()[0, 0] == -73.0
    assert m3().shape == (5, 5)
    assert m3()[4, 3] == 4.0
    assert m4()[0, 0] == 1.0 + 1.0j
    assert m4()[2, 2] == -1.0 - 1.0j
    assert_array_equal(unit2(), np.eye(2))


def test_series_rejects_non_square():
    with pytest.raises(ValueError):
        expm_taylor_squaring(np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        expm_taylor_squaring(np.zeros((0, 0)))


def test_series_reports_overflow():
    with pytest.raises(OverflowError):
        expm_taylor_squaring(np.full((2, 2), 1e306))
    # finite entries whose row-sum norm overflows: the shift search would
    # halve an infinite norm forever
    with pytest.raises(OverflowError, match="norm"):
        expm_taylor_squaring([[1e308, 1e308], [0.0, 0.0]])
