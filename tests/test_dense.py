from fractions import Fraction

import numpy as np
import pytest

from fetexpm import as_complex_matrix, expm, max_abs_diff
from fetexpm.dense import real_form


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_complex_matrix([[complex(0.0, np.inf)]])
    for shape in ((2, 3), (3, 2), (0, 0), (0, 3), (1, 0)):
        with pytest.raises(ValueError, match="square and non-empty"):
            as_complex_matrix(np.zeros(shape))


def test_as_complex_matrix_rejects_text_entries():
    # numpy would parse these as numbers: "4" as 4, "1+2j" (which the matrix
    # file grammar rejects) as 1+2j and b"1" as 1
    for text in ([[1, 2], [3, "4"]], [["1+2j"]], [[b"1"]], np.array([["1"]], dtype=object),
                 np.array([[1.0, b"2"], [3.0, 4.0]], dtype=object)):
        with pytest.raises(ValueError, match="not text"):
            as_complex_matrix(text)
    with pytest.raises(ValueError, match="not text"):
        expm([[1, 2], [3, "4"]])
    # numbers held as Python objects are still numbers
    assert as_complex_matrix(np.array([[Fraction(1, 2)]], dtype=object))[0, 0] == 0.5
    assert as_complex_matrix([[True]])[0, 0] == 1.0


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


def test_max_abs_diff_basics():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(np.eye(2), np.zeros((2, 2))) == 1.0
    with pytest.raises(ValueError):
        max_abs_diff(np.eye(2), np.eye(3))


def test_max_abs_diff_rejects_empty_operands():
    # an empty difference has no largest entry; say so instead of failing
    # inside numpy's reduction
    for shape in ((0, 0), (0, 3)):
        with pytest.raises(ValueError, match="non-empty"):
            max_abs_diff(np.zeros(shape), np.zeros(shape))


def test_max_abs_diff_between_published_reference_matrices():
    # two renderings of the same stiff exponential that differ in the last
    # couple of printed digits; their distance pins the metric's behaviour
    exact_print = [[-0.7357588823012208, 0.5518191617363316],
                   [-1.4715177646302175, 1.1036383234865511]]
    run_print = [[-0.7357588823012181, 0.5518191617363358],
                 [-1.4715177646302120, 1.1036383234865592]]
    d = max_abs_diff(exact_print, run_print)
    assert 8.0e-15 <= d <= 8.4e-15
