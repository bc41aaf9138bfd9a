import functools
import itertools
import math
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from brute_force import brute_force_rhs, brute_force_system
from matrix_distance import max_abs_diff
from random_matrices import random_unit_disk
from fetexpm import expm, expm_taylor_squaring, propagator, studies
from fetexpm.basis import build_tables, real_form
from fetexpm.matio import as_complex_matrix
from fetexpm.oracles import exact_m1, m1, m2
from fetexpm.propagator import (
    COMPLEX_MIN_SIZE,
    PENCIL_MIN_SIZE,
    _dense_propagate,
    _pencil_propagate,
    assemble_rhs,
    assemble_system,
    expm_each,
)


def test_system_for_zero_matrix_is_scaled_kron():
    tables = build_tables(3)
    zero = np.zeros((4, 4))
    system = assemble_system(zero, 6.0, tables)
    assert_array_equal(system, 6.0 * np.kron(tables.deriv, np.eye(4)))


def test_system_scalar_case_closed_form():
    tables = build_tables(1)
    alpha = 0.7 - 0.2j
    system = assemble_system(np.array([[alpha]]), 2.0, tables)
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


def test_stacked_systems_match_one_call_per_scale_bitwise():
    # a dense march assembles the systems of all its rows in one call
    rng = np.random.default_rng(27)
    for n in (1, 2, 3):
        for m in (1, 5, 8):
            tables = build_tables(m)
            a = random_unit_disk(rng, n)
            for scales in ([16.0], [116.0, 16.0, 2.0]):
                stacked = assemble_system(a, np.array(scales), tables)
                assert stacked.shape == (len(scales), n * m, n * m)
                for scale, system in zip(scales, stacked):
                    assert system.tobytes() == assemble_system(a, scale, tables).tobytes()


def test_system_written_into_a_buffer_keeps_every_bit():
    # assemble_system scales a cached kron(deriv, I_n) and writes into a given
    # buffer; both keep every bit of the broadcast product (scale deriv) delta_ik
    # minus overlap a, signed zeros included: an off-diagonal zero of a block
    # carries the sign of scale deriv[mu', mu], and a's zeros their own
    rng = np.random.default_rng(37)
    negative_zeros = 0
    for n in (1, 2, 3):
        for m in (1, 2, 5, 8, 13):
            tables = build_tables(m)
            a = random_unit_disk(rng, n)
            a.real[0] = -0.0
            a.imag[-1, 0] = 0.0
            for scales in (16.0, np.array([16.0]), np.array([116.0, 16.0, 2.0])):
                scale = np.asarray(scales)
                eye = np.eye(n)
                expected = ((scale[..., None, None] * tables.deriv)[..., :, None, :, None] * eye[None, :, None, :]
                            - tables.overlap[:, None, :, None] * a[None, :, None, :])
                expected = expected.reshape(scale.shape + (n * m, n * m))
                parts = expected.view(np.float64)
                negative_zeros += np.signbit(parts[parts == 0.0]).sum()
                assert assemble_system(a, scales, tables).tobytes() == expected.tobytes()
                buf = np.full(expected.shape, np.nan, dtype=complex)
                assert assemble_system(a, scales, tables, out=buf) is buf
                assert buf.tobytes() == expected.tobytes()
    assert negative_zeros > 0


def test_propagation_of_zero_matrix_keeps_state():
    # the zero matrix gives zero right-hand sides, so an element adds nothing
    # to whatever state it starts from
    rng = np.random.default_rng(77)
    psi = random_unit_disk(rng, 3)
    zero = np.zeros((3, 3))
    tables = build_tables(5)
    system = assemble_system(zero, 4.0, tables)
    coeffs = np.linalg.solve(system, assemble_rhs(zero, psi, tables.load))
    assert (coeffs == 0.0).all()


def test_single_element_scalar_exponential():
    report = expm([[1.0]], num_elements=1, num_basis=12)
    assert abs(report.result[0, 0] - math.e) <= 1e-14


def test_one_narrow_element_rotates_by_its_width():
    # one element over the generator scaled by 1/8 rotates by 1/8 radian
    psi = expm(m2() / 8.0, num_elements=1).result
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


def reference_expm(a, num_elements, num_basis):
    """expm's element loop rebuilt from the public layers, one column at a time.

    Each column of the state gets its own vector solve and end-value update.
    """
    n = a.shape[0]
    tables = build_tables(num_basis)
    psi = np.eye(n, dtype=complex)
    system = assemble_system(a, 2.0 * num_elements, tables)
    for _ in range(num_elements):
        rhs = assemble_rhs(a, psi, tables.load)
        psi_new = psi.copy()
        for col in range(n):
            coeffs = np.linalg.solve(system, rhs[:, col])
            psi_new[:, col] += tables.end_vals @ coeffs.reshape(num_basis, n)
        psi = psi_new
    return psi


def test_batched_step_matches_per_column_reference():
    # LAPACK may block a many-column solve differently from a vector solve,
    # so the two agree to rounding rather than bit for bit (on one OpenBLAS
    # build, 57 of 60 cases were bitwise and the worst relative gap 3.6e-15)
    rng = np.random.default_rng(909)
    for n in (1, 2, 3, 4, 8):
        for m in (1, 5, 8, 16):
            a = random_unit_disk(rng, n)
            for num_elements in (1, 3, 5):
                report = expm(a, num_elements=num_elements, num_basis=m)
                reference = reference_expm(a, num_elements, m)
                scale = np.max(np.abs(reference))
                assert max_abs_diff(report.result, reference) <= 1e-13 * scale


def kron_loop_expm(a, num_elements, num_basis):
    """expm's element loop with the Kronecker-product assembly of the block system.

    One batched solve per element, as in ``expm``; the system is built from
    two ``np.kron`` products instead of the broadcast in ``assemble_system``.
    """
    n = a.shape[0]
    tables = build_tables(num_basis)
    scale = 2.0 * num_elements
    system = scale * np.kron(tables.deriv, np.eye(n)) - np.kron(tables.overlap, a)
    psi = np.eye(n, dtype=complex)
    for _ in range(num_elements):
        coeffs = np.linalg.solve(system, assemble_rhs(a, psi, tables.load))
        per_col = np.ascontiguousarray(coeffs.reshape(num_basis, n, n).transpose(2, 0, 1))
        psi = psi + (tables.end_vals @ per_col).T
    return psi


def test_expm_matches_kronecker_loop_bitwise(monkeypatch):
    # n = 1 and 2 are below the switch, so expm takes the dense solve; n = 3
    # and 5 take it with the switch moved above them, which keeps the dense
    # solve pinned bit for bit at the sizes it used to serve
    rng = np.random.default_rng(4242)
    for n in (1, 2, 3, 5):
        if n >= PENCIL_MIN_SIZE:
            monkeypatch.setattr("fetexpm.propagator.PENCIL_MIN_SIZE", n + 1)
        for m in (1, 5, 8, 16):
            a = random_unit_disk(rng, n)
            # 8 and 58 elements march long single-row stretches
            for num_elements in (1, 3, 5, 8, 58):
                report = expm(a, num_elements=num_elements, num_basis=m)
                assert np.array_equal(report.result, kron_loop_expm(a, num_elements, m))


def test_rejects_bad_arguments():
    # expm is the only place that checks input; the kernels trust it
    for bad in (np.ones((2, 3)), [[1.0, np.nan], [0.0, 1.0]], [[np.inf]], [1.0, 2.0]):
        with pytest.raises(ValueError):
            expm(bad)
    with pytest.raises(ValueError, match="non-empty"):
        expm(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        expm(np.eye(2), num_elements=0)
    with pytest.raises(ValueError):
        expm(np.eye(2), num_basis=0)
    # counts are not truncated: 7.9 elements or 5.5 basis functions is an error
    with pytest.raises(TypeError):
        expm(m1(), 7.9)
    with pytest.raises(TypeError):
        expm(m1(), 8, 5.5)
    # still a TypeError once the tables for m = 8 are cached
    expm(m1(), 8, 8)
    with pytest.raises(TypeError):
        expm(m1(), 8, 8.0)
    assert expm(m1(), np.int64(2), np.int32(3)).num_basis == 3
    # one count check serves both solves: the same errors at n = 16
    for counts in ((8.0, 8), (8, 8.0)):
        with pytest.raises(TypeError):
            expm(np.eye(16), *counts)
    for bad in (0, -1):
        for counts in ((bad, 8), (8, bad)):
            with pytest.raises(ValueError):
                expm(np.eye(16), *counts)


def test_input_is_converted_once(monkeypatch):
    calls = []

    def counting(data):
        calls.append(1)
        return as_complex_matrix(data)

    monkeypatch.setattr("fetexpm.propagator.as_complex_matrix", counting)
    expm(m1(), 8, 8)
    assert len(calls) == 1


def test_singular_block_system_raises():
    # E=3, m=1: the block system's only entry is 6*pi - 4 * 1.5*pi = 0; at
    # n = 3, 6 and 16 the same entry fills the diagonal of the pencil solve's
    # one shifted block
    for size in (1, 3, 6, 16):
        with pytest.raises(np.linalg.LinAlgError):
            expm(4.0 * np.eye(size), num_elements=3, num_basis=1)


def test_overflowing_assembly_is_reported():
    with pytest.raises(OverflowError):
        expm([[1e308]])


@pytest.mark.parametrize(
    ("value", "num_elements"),
    [
        pytest.param(800.0, 128, id="800.0-128-solution"),
        pytest.param(710.5, 256, id="710.5-256-solution"),
    ],
)
def test_overflowing_propagation_raises_without_warnings(value, num_elements):
    # exp(710.5) and up exceed the largest double; the set-up stays finite and
    # the state overflows part-way through the elements, in the dense solve
    # (n = 1, 2) and in the pencil solve (n = 3, 16) alike
    assert PENCIL_MIN_SIZE == 3
    for size in (1, 2, 3, 16):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="solution"):
                expm(value * np.eye(size), num_elements=num_elements)


@pytest.mark.parametrize("n", [2, 3])
def test_non_finite_state_stays_non_finite(n):
    # expm checks the state once, after the last element; that suffices
    # because no element turns a non-finite state finite: the dense solve
    # (n = 2) adds to it, and the pencil solve's (n = 3) end row has
    # coefficient exactly 1 on it (pinned by
    # test_pencil_schur_triangularises_the_tables).  A march of e elements
    # has scale 2e, so on 6.25 e I every element applies, up to rounding, the
    # map of 800 I at scale 256; e of them overflow for some e below 128, and
    # so does every longer march
    propagate = _dense_propagate if n < PENCIL_MIN_SIZE else _pencil_propagate
    tables = build_tables(8)
    # expm runs each solve under this errstate; called directly, it is the caller's
    with np.errstate(over="ignore", invalid="ignore"):
        finite = [
            bool(np.isfinite(propagate(as_complex_matrix(6.25 * e * np.eye(n)), [(e, tables)])[0]).all())
            for e in range(1, 129)
        ]
    first = finite.index(False)
    assert first < 127 and not any(finite[first:])


def spectral_scaled(rng, n, norm):
    a = random_unit_disk(rng, n)
    return a * (norm / np.linalg.norm(a, 2))


def test_pencil_solve_matches_kronecker_loop():
    # n >= PENCIL_MIN_SIZE takes the pencil solve; the dense Kronecker loop is
    # its oracle, equal in exact arithmetic, so the two agree to rounding
    rng = np.random.default_rng(1616)
    for n in (3, 4, 5, 6, 8, 16, 24, 32):
        a = spectral_scaled(rng, n, 4.0)
        for m in (1, 2, 5, 8, 16):
            for num_elements in (1, 3, 8):
                report = expm(a, num_elements=num_elements, num_basis=m)
                reference = kron_loop_expm(a, num_elements, m)
                scale = np.max(np.abs(reference))
                assert max_abs_diff(report.result, reference) <= 1e-13 * scale


def plain_inverses(a, coupling, scale):
    """The inverses of the shifted blocks ``scale I - r[k, k] a``, each on its own."""
    n = a.shape[0]
    inverses = []
    for k in range(coupling.shape[0] - 1):
        block = -coupling[k, k] * a
        for i in range(n):
            block[i, i] += scale
        inverses.append(np.linalg.inv(block))
    return inverses


def plain_pencil_expm(a, num_elements, num_basis):
    """The pencil solve written plainly in complex arithmetic: fresh arrays and one
    ``np.dot`` per product.

    It reads only the coupling matrix ``tables.pencil`` and inverts each
    shifted block on its own.  From ``COMPLEX_MIN_SIZE`` on, ``expm``'s bound
    methods, shared state and stacked inverse must reproduce it bit for
    bit; below it, ``expm`` multiplies real forms and agrees to rounding.
    """
    n = a.shape[0]
    m = num_basis
    coupling = build_tables(m).pencil
    inverses = plain_inverses(a, coupling, 2.0 * num_elements)
    psi = np.eye(n, dtype=complex)
    for _ in range(num_elements):
        # row k holds Y[k] flattened, row m the state
        rows = np.zeros((m + 1, n * n), dtype=complex)
        rows[m] = psi.ravel()
        for k in range(m - 1, -1, -1):
            u_k = np.dot(coupling[k, k + 1:], rows[k + 1:]).reshape(n, n)
            rows[k] = np.dot(inverses[k], np.dot(a, u_k)).ravel()
        psi = np.dot(coupling[m], rows).reshape(n, n)
    return psi


def block_real_form(z):
    """``[[Re z, -Im z], [Im z, Re z]]`` for a complex matrix ``z``, by ``np.block``."""
    return np.block([[z.real, -z.imag], [z.imag, z.real]])


def plain_real_form_pencil_expm(a, num_elements, num_basis):
    """The pencil solve written plainly on real forms: fresh arrays and one
    ``np.dot`` per product.

    Every complex matrix becomes ``[[X, -Y], [Y, X]]``, every block ``Y[k]``
    the stacked ``[Re Y[k]; Im Y[k]]`` and every coupling entry a 2 x 2 real
    block, all built here from ``tables.pencil`` and the complex inverses.
    Below ``COMPLEX_MIN_SIZE``, ``expm`` must reproduce it bit for bit.
    """
    n = a.shape[0]
    m = num_basis
    coupling = build_tables(m).pencil
    coupling_real = np.empty((2 * m + 2, 2 * m + 2))
    coupling_real[0::2, 0::2] = coupling_real[1::2, 1::2] = coupling.real
    coupling_real[1::2, 0::2] = coupling.imag
    coupling_real[0::2, 1::2] = -coupling.imag
    a_real = block_real_form(a)
    inverses = [block_real_form(inv) for inv in plain_inverses(a, coupling, 2.0 * num_elements)]
    psi = np.concatenate((np.eye(n), np.zeros((n, n))))
    for _ in range(num_elements):
        # rows 2k and 2k + 1 hold Re Y[k] and Im Y[k] flattened, rows 2m and 2m + 1 the state
        rows = np.zeros((2 * m + 2, n * n))
        rows[2 * m:] = psi.reshape(2, n * n)
        for k in range(m - 1, -1, -1):
            u_k = np.dot(coupling_real[2 * k:2 * k + 2, 2 * k + 2:], rows[2 * k + 2:]).reshape(2 * n, n)
            rows[2 * k:2 * k + 2] = np.dot(inverses[k], np.dot(a_real, u_k)).reshape(2, n * n)
        psi = np.dot(coupling_real[2 * m:], rows).reshape(2 * n, n)
    return psi[:n] + 1j * psi[n:]


# sizes either side of the operand switch, from the smallest pencil size up
PLAIN_LOOP_SIZES = (3, 4, 5, 8, 16, 32, COMPLEX_MIN_SIZE - 1, COMPLEX_MIN_SIZE)


def plain_loop_inputs(rng, n):
    """Complex, real, purely imaginary and upper-triangular inputs of spectral norm 4."""
    a = spectral_scaled(rng, n, 4.0)
    real = a.real * (4.0 / np.linalg.norm(a.real, 2))
    triangular = np.triu(a)
    return {
        "complex": a,
        "real": real,
        "imaginary": 1j * real,
        "upper triangular": triangular * (4.0 / np.linalg.norm(triangular, 2)),
    }


def test_pencil_solve_matches_plain_loop_bitwise():
    # the Kronecker loop above agrees with the pencil solve only to rounding;
    # this pins its bookkeeping to the bit, on real forms below the operand
    # switch and on complex operands from it
    assert PENCIL_MIN_SIZE == 3
    rng = np.random.default_rng(1818)
    for n in PLAIN_LOOP_SIZES:
        plain = plain_real_form_pencil_expm if n < COMPLEX_MIN_SIZE else plain_pencil_expm
        for kind, a in plain_loop_inputs(rng, n).items():
            a = as_complex_matrix(a)
            for m in (1, 2, 5, 8, 16):
                for num_elements in (1, 2, 3, 8):
                    report = expm(a, num_elements=num_elements, num_basis=m)
                    assert_array_equal(report.result, plain(a, num_elements, m), err_msg=kind)


def test_pencil_solve_matches_complex_plain_loop():
    # below the operand switch the real forms change only the rounding: the
    # complex plain loop stays an oracle within a few units of the largest entry
    rng = np.random.default_rng(1919)
    for n in PLAIN_LOOP_SIZES:
        for kind, a in plain_loop_inputs(rng, n).items():
            a = as_complex_matrix(a)
            for m in (1, 2, 5, 8, 16):
                for num_elements in (1, 2, 3, 8):
                    reference = plain_pencil_expm(a, num_elements, m)
                    result = expm(a, num_elements=num_elements, num_basis=m).result
                    err = max_abs_diff(result, reference)
                    assert err <= 1e-14 * np.max(np.abs(reference)), (kind, n, m, num_elements, err)


@pytest.mark.parametrize("n", [48, 64])
def test_real_forms_above_the_switch_agree_with_complex_operands(monkeypatch, n):
    # the operand switch may move: real forms forced above it change only the
    # rounding of what the complex operands give there
    rng = np.random.default_rng(4800 + n)
    inputs = {kind: as_complex_matrix(a) for kind, a in plain_loop_inputs(rng, n).items()}
    cases = [(kind, num_elements, m) for kind in inputs for num_elements in (1, 8) for m in (8, 16)]
    complex_results = [expm(inputs[kind], num_elements, m).result for kind, num_elements, m in cases]
    embedded = []

    def counting(z, **kwargs):
        embedded.append(z.shape)
        return real_form(z, **kwargs)

    monkeypatch.setattr("fetexpm.propagator.real_form", counting)
    monkeypatch.setattr("fetexpm.propagator.COMPLEX_MIN_SIZE", n + 1)
    for (kind, num_elements, m), reference in zip(cases, complex_results):
        embedded.clear()
        result = expm(inputs[kind], num_elements, m).result
        # a and the m inverses, staged back to back and embedded in one call
        assert embedded == [(m + 1, n, n)]
        err = max_abs_diff(result, reference)
        assert err <= 1e-14 * np.max(np.abs(reference)), (kind, num_elements, m, err)


@pytest.mark.parametrize("n", [COMPLEX_MIN_SIZE - 1, COMPLEX_MIN_SIZE])
def test_pencil_solve_binds_real_forms_below_the_switch(monkeypatch, n):
    # the operand choice is made once, at set-up, from n alone: below the
    # switch a and the stacked inverses are embedded, in one call on a stage
    # that holds a and then the inverses, from it nothing is
    embedded = []

    def counting(z, **kwargs):
        embedded.append(z.shape)
        return real_form(z, **kwargs)

    monkeypatch.setattr("fetexpm.propagator.real_form", counting)
    expm(np.eye(n) / 4.0, 3, 5)
    assert embedded == ([(6, n, n)] if n < COMPLEX_MIN_SIZE else [])


def test_pencil_solve_matches_scipy_expm():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    # at spectral norm 1/2 one element with 8 functions is already converged
    rng = np.random.default_rng(3232)
    for n in (3, 4, 5, 6, 8, 16, 24, 32):
        a = spectral_scaled(rng, n, 0.5)
        reference = scipy_linalg.expm(a)
        scale = np.max(np.abs(reference))
        for m in (8, 16):
            for num_elements in (1, 3, 8):
                report = expm(a, num_elements=num_elements, num_basis=m)
                assert max_abs_diff(report.result, reference) <= 1e-12 * scale


def test_solve_switches_to_the_pencil_at_three(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble_system(*args, **kwargs)

    monkeypatch.setattr("fetexpm.propagator.assemble_system", counting)
    assert PENCIL_MIN_SIZE == 3
    expm(np.eye(2) / 4.0)
    assert len(calls) == 1
    expm(np.eye(3) / 4.0)
    assert len(calls) == 1


def test_pencil_is_built_only_for_the_pencil_solve():
    m = 43  # a basis count no other test reaches, so its tables start bare
    tables = build_tables(m)
    expm(np.eye(2) / 4.0, 1, m)
    assert "pencil" not in vars(tables) and "pencil_real" not in vars(tables)
    expm(np.eye(3) / 4.0, 1, m)
    pencil = vars(tables)["pencil"]
    assert "pencil_real" in vars(tables)
    expm(np.eye(3) / 2.0, 1, m)
    assert build_tables(m).pencil is pencil


def test_pencil_march_slices_its_coupling_matrix():
    # the shifts and step rows every pencil solve reads are the entries of the
    # coupling matrix in the march's own form, sliced once when the march is
    # built: the real form below COMPLEX_MIN_SIZE (p = 2), the complex one from it
    for n, p in ((COMPLEX_MIN_SIZE - 1, 2), (COMPLEX_MIN_SIZE, 1)):
        for m in range(1, 41):
            tables = build_tables(m)
            coupling = tables.pencil_real if p == 2 else tables.pencil
            march = propagator._PencilMarch(("test", n, m), n, p, [(1, tables)])
            assert_array_equal(march.shifts[:, 0, 0], -tables.pencil.diagonal()[:m])
            assert len(march.first_steps) == m
            for k, rows in enumerate(march.first_steps):
                assert np.shares_memory(rows, coupling) and rows.shape == (p, p * (m - k))
                assert_array_equal(rows, coupling[p * k:p * k + p, p * k + p:])
                assert not rows.flags.writeable
            # a one-row march binds the dot methods of these rows and of its end rows
            steps, ends, _, _ = march.bind(1)
            assert all(step[0].__self__ is rows for step, rows in zip(steps, march.first_steps[::-1]))
            (combine, _, _), = ends
            assert np.shares_memory(combine.__self__, coupling) and not combine.__self__.flags.writeable
            assert_array_equal(combine.__self__, coupling[p * m:])
    # rows of several basis counts end on the end rows of their own coupling matrices
    march = propagator._PencilMarch(("test", 5, 8, 5), 5, 2, [(1, build_tables(8)), (1, build_tables(5))])
    for (combine, _, _), m in zip(march.bind(2)[1], (8, 5)):
        assert np.shares_memory(combine.__self__, build_tables(m).pencil_real)
        assert_array_equal(combine.__self__, build_tables(m).pencil_real[2 * m:])


def test_pencil_overflowing_input_is_reported():
    # the shifted blocks stay finite; the first right-hand side overflows,
    # which the set-up check sees before the blocks are inverted
    with pytest.raises(OverflowError):
        expm(np.full((16, 16), 1e308))


def test_overlap_peaks_at_its_first_entry():
    # expm's set-up overflow check scales a by overlap[0, 0] alone; that
    # covers every entry of the block system because no |overlap| entry
    # exceeds it (and no pencil |r[k, k]|, pinned in test_basis, exceeds 1.5)
    for m in range(1, 61):
        overlap = build_tables(m).overlap
        assert overlap[0, 0] == 1.5 * np.pi == np.max(np.abs(overlap))


@pytest.mark.parametrize("unit", [1.0, 1j])
def test_set_up_check_stops_overflow_before_either_solve(monkeypatch, unit):
    def failing(*args, **kwargs):
        raise RuntimeError("reached the solve")

    # the dense march assembles its systems, and the pencil march calls its
    # bound inverse kernel, first thing after its set-up check
    monkeypatch.setattr("fetexpm.propagator.assemble_system", failing)
    bind_kernels(monkeypatch, inv=failing)
    # Python floats, which overflow to inf without a warning
    finfo = np.finfo(np.float64)
    limit = float(finfo.max) / (1.5 * math.pi)
    above = limit * (1.0 + 4.0 * float(finfo.eps))
    below = limit * (1.0 - 4.0 * float(finfo.eps))
    assert math.isinf(1.5 * math.pi * above) and math.isfinite(1.5 * math.pi * below)
    # one rule at every size, for the dense solve (n = 1, 2) and the pencil
    # solve (n = 3, 6) alike
    for size in (1, 2, 3, 6):
        a = np.zeros((size, size), dtype=complex)
        a[-1, 0] = unit * above
        with pytest.raises(OverflowError, match="block system"):
            expm(a)
        a[-1, 0] = unit * below
        with pytest.raises(RuntimeError, match="reached the solve"):
            expm(a)
    # 1.5 pi finfo.max / 4 overflows but pi finfo.max / 4 does not, so a check
    # scaled by load[0] = pi lets these through: from n = 3 one such diagonal
    # entry then gives a finite, wrong result and a full matrix a LinAlgError
    big = unit * float(finfo.max) / 4.0
    for size in (2, 3, 6, 16):
        for a in (np.diag([big] + [0.0] * (size - 1)), np.full((size, size), big)):
            with pytest.raises(OverflowError, match="block system"):
                expm(a)


def test_reports_and_tables_compare_and_hash_by_identity():
    # their array fields have no single truth value, so a generated __eq__
    # would raise and a generated __hash__ would reject them
    first, second = expm(np.eye(2)), expm(np.eye(2))
    assert first == first and first != second
    assert len({first, second}) == 2
    tables = build_tables(8)
    assert tables == build_tables(8) and tables != build_tables(9)
    assert hash(tables) == hash(build_tables(8))


def test_results_own_their_memory():
    # both solves keep their working memory in marches kept between calls;
    # every result must still be a fresh array, not a view of a kept array
    # or one that keeps it alive, and a later call must leave it alone
    rng = np.random.default_rng(66)
    for n in (2, 3, 5, 6, 16, 32, 40, 64):
        first = expm(random_unit_disk(rng, n)).result
        kept = first.copy()
        second = expm(random_unit_disk(rng, n)).result
        rows = expm_each(random_unit_disk(rng, n), [(3, 8), (5, 8), (2, 4)])
        third = expm(random_unit_disk(rng, n)).result
        for result in (first, second, third, *rows):
            assert result.shape == (n, n) and result.dtype == np.complex128
            assert result.flags.c_contiguous and result.flags.writeable
            assert result.flags.owndata
            for march in kept_marches():
                for array in march.written:
                    assert not np.shares_memory(result, array)
        for one, other in itertools.combinations((first, second, third, *rows), 2):
            assert not np.shares_memory(one, other)
        assert np.array_equal(first, kept)


def test_pencil_solve_factors_once_per_call(monkeypatch):
    # the shifted blocks are the same on every element, so the number of
    # factorizations does not grow with the element count
    a = spectral_scaled(np.random.default_rng(17), 16, 1.0)
    calls = []
    kernels = {}
    for name in ("solve", "inv"):
        def counting(*args, _real=getattr(propagator._umath_linalg, name), **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        kernels[name] = counting
    bind_kernels(monkeypatch, **kernels)
    expm(a, 1)  # builds the march, which binds the counting kernels
    counts = []
    for num_elements in (1, 8):
        calls.clear()
        expm(a, num_elements)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1


def test_dense_march_kernel_matches_linalg_solve_bitwise():
    # after its first element the dense march calls the gufunc under
    # np.linalg.solve, a numpy private, bound as below; it must return the
    # public call's array bit for bit, on this numpy and on the oldest one
    # CI installs, so a numpy that renames or changes it fails here
    kernel = functools.partial(propagator._umath_linalg.solve, signature="DD->D")
    rng = np.random.default_rng(26)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for size in (1, 2, 10, 40, 80):
        for stack in ((), (5,)):
            system = complex_normal(*stack, size, size)
            for columns in (1, 2):
                rhs = complex_normal(*stack, size, columns)
                expected = np.linalg.solve(system, rhs)
                solved = kernel(system, rhs)
                assert solved.dtype == expected.dtype and solved.shape == expected.shape
                assert solved.tobytes() == expected.tobytes(), f"N={size} stack={stack} k={columns}"


def test_pencil_inverse_kernel_matches_linalg_inv_bitwise():
    # the pencil march inverts its shifted blocks with the gufunc under
    # np.linalg.inv, a numpy private, bound as below and writing into a given
    # array; it must give the public call's array bit for bit, on this numpy and
    # on the oldest one CI installs, so a numpy that renames or changes it fails here
    kernel = functools.partial(propagator._umath_linalg.inv, signature="D->D")
    rng = np.random.default_rng(37)
    for size in (1, 3, 4, 8, 39, 40, 64):
        for stack in ((), (1,), (9,)):
            blocks = rng.standard_normal((*stack, size, size)) + 1j * rng.standard_normal((*stack, size, size))
            expected = np.linalg.inv(blocks)
            out = np.empty_like(blocks)
            assert kernel(blocks, out=out) is out
            assert out.tobytes() == expected.tobytes(), f"N={size} stack={stack}"


def test_bound_einsum_matches_np_einsum_bitwise():
    # assemble_rhs calls the C function under np.einsum, a numpy private; it
    # must return the public call's array bit for bit, on this numpy and on
    # the oldest one CI installs.  Identity states have exact zeros
    rng = np.random.default_rng(29)
    for n in (1, 2):
        a = random_unit_disk(rng, n)
        states = [np.eye(n, dtype=complex), random_unit_disk(rng, n)]
        states += [np.stack([state[None]] * 4) for state in states]
        states.append(np.stack([random_unit_disk(rng, n)[None] for _ in range(4)]))
        for psi in states:
            expected = np.einsum("ik,...kj->...ij", a, psi)
            product = propagator.c_einsum("ik,...kj->...ij", a, psi)
            assert product.dtype == expected.dtype and product.shape == expected.shape
            assert product.tobytes() == expected.tobytes(), f"n={n} shape={psi.shape}"


def record_marches(monkeypatch, solve=True):
    """The list of march sizes, which fills as ``expm_each`` hands each march
    to its solve; with ``solve=False`` a march skips the solve and returns
    identities."""
    sizes = []
    for name in ("_dense_propagate", "_pencil_propagate"):
        def recording(a, rows, _real=getattr(propagator, name)):
            sizes.append(len(rows))
            return _real(a, rows) if solve else [np.eye(a.shape[0], dtype=complex) for _ in rows]

        monkeypatch.setattr(propagator, name, recording)
    return sizes


def test_dense_march_calls_linalg_solve_once(monkeypatch):
    # the first element of a dense march calls the solve kernel under
    # np.linalg.solve's errstate, which raises on a singular system, and every
    # later one calls it bare: one checked solve per march, whatever its element
    # count.  A march also assembles the systems of all its rows in one call
    checked, solves, assembled = [], [], []

    def counting_errstate(_real=propagator._raising_singular):
        checked.append(1)
        return _real()

    def counting_solve(*args, _real=propagator._umath_linalg.solve, **kwargs):
        solves.append(1)
        return _real(*args, **kwargs)

    def counting_assembly(*args, **kwargs):
        assembled.append(1)
        return assemble_system(*args, **kwargs)

    monkeypatch.setattr(propagator, "_raising_singular", counting_errstate)
    monkeypatch.setattr("fetexpm.propagator.assemble_system", counting_assembly)
    bind_kernels(monkeypatch, solve=counting_solve)
    marches = record_marches(monkeypatch)
    for num_elements in (1, 8, 58):
        checked.clear()
        solves.clear()
        assembled.clear()
        expm(m1(), num_elements)
        assert len(checked) == 1 and len(assembled) == 1 and len(solves) == num_elements
    # one march over element counts, then one march per basis count
    for rows, num_marches in (([(count, 8) for count in range(5, 41)], 1),
                              ([(3, 5), (8, 5), (1, 7), (8, 7), (2, 9)], 3)):
        checked.clear()
        marches.clear()
        assembled.clear()
        expm_each(m1(), rows)
        assert len(marches) == len(checked) == len(assembled) == num_marches


@pytest.mark.parametrize("num_elements", [8, 16, 58])
def test_pencil_solve_keeps_the_stiff_block_accurate(num_elements):
    # m1 is Moler and Van Loan's stiff example (eigenvalues -1 and -25);
    # two, three, four or eight copies of it on the diagonal take the pencil
    # solve, which must keep the dense solve's accuracy on it
    for copies in (2, 3, 4, 8):
        a = np.kron(np.eye(copies), m1())
        exact = np.kron(np.eye(copies), exact_m1())
        for m in (8, 12, 16):
            result = expm(a, num_elements, m).result
            assert max_abs_diff(result, exact) <= 1e-14 * np.max(np.abs(exact))


def overflowing_inverse(blocks, out, **kwargs):
    """An inverse kernel whose every inverse overflowed."""
    out[...] = np.inf
    return out


def test_pencil_overflowing_inverse_is_reported(monkeypatch):
    # no finite input is known whose shifted blocks stay finite while their
    # inverses overflow, so the bound inverse kernel is made to overflow; the
    # non-finite inverse reaches the state, which the element loop checks
    bind_kernels(monkeypatch, inv=overflowing_inverse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="solution"):
            expm(np.eye(16) / 4.0)


@functools.cache
def march_matrix(n):
    """The seeded n x n matrix of the march tests."""
    return as_complex_matrix(random_unit_disk(np.random.default_rng(2300 + n), n) * 3.0)


@functools.cache
def one_expm(n, num_elements, num_basis):
    """``expm(march_matrix(n), num_elements, num_basis).result``, computed once and
    shared by the march tests: a march over elements and one over basis counts
    need many of the same references."""
    return expm(march_matrix(n), num_elements, num_basis).result


def three_rows(n, m):
    """A ``SPARE_BYTES`` that admits three real-form rows of basis count m at size n
    to one march, priced as ``expm_each`` prices them."""
    return propagator._pencil_price(n, 2, m, 3, 3 * m)


def assert_march_matches_one_expm_per_row(n, rows):
    results = expm_each(march_matrix(n), rows)
    assert len(results) == len(rows)
    for (num_elements, num_basis), result in zip(rows, results):
        assert_array_equal(result, one_expm(n, num_elements, num_basis),
                           err_msg=f"n={n} E={num_elements} m={num_basis}")
        assert result.shape == (n, n) and result.flags.owndata


# count lists for the stacked march: one count, unsorted, repeated, and 1..top,
# which runs top rows of which one retires after each element
def march_count_lists(top):
    return [7], [5, 2, 9, 3], [4, 6, 4, 4, 1], list(range(1, top + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 33, 39, 40])
def test_stacked_march_matches_one_expm_per_count_bitwise(monkeypatch, n):
    # every row of one march equals its own expm call to the bit, on the dense
    # solve (n <= 2), on real forms (3 <= n < 40) and on complex operands
    # (n >= 40), whose rows march one at a time whatever the bound; each
    # count list is marched whole and, with a SPARE_BYTES of three real-form
    # rows, in marches of three (at n >= 33 and m = 16 the default bound
    # already holds at most seven rows).  From n = 33 the one-count references
    # for m = 8 and 16 stop at 12 elements, which keeps the test within seconds
    for m in (1, 2, 5, 8, 16):
        top = 40 if n <= 16 or m <= 5 else 12
        for bound in (None, three_rows(n, m)):
            if bound is not None:
                monkeypatch.setattr("fetexpm.propagator.SPARE_BYTES", bound)
            for counts in march_count_lists(top):
                assert_march_matches_one_expm_per_row(n, [(count, m) for count in counts])
            monkeypatch.undo()


# basis count lists for the basis march: one count, unsorted, repeated, 1..16
# and 5..top, whose rows right-align their steps to the largest count
def basis_count_lists(top):
    return [9], [12, 5, 16, 2, 7], [6, 3, 6, 6, 1], list(range(1, 17)), list(range(5, top + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 39, 40])
def test_basis_march_matches_one_expm_per_row_bitwise(monkeypatch, n):
    # rows of one element count and several basis counts: from n = 3 one march
    # right-aligns their basis steps, and the dense solve marches each count on
    # its own; either way every row equals its own expm call to the bit.  Each
    # list is marched whole and, with a SPARE_BYTES of three rows of the
    # largest count, in several marches.
    # From n = 39 the lists stop at 16 basis functions, which keeps the test
    # within seconds
    top = 40 if n <= 16 else 16
    for bound in (None, three_rows(n, top)):
        if bound is not None:
            monkeypatch.setattr("fetexpm.propagator.SPARE_BYTES", bound)
        for num_elements in (1, 3, 8):
            for counts in basis_count_lists(top):
                assert_march_matches_one_expm_per_row(n, [(num_elements, m) for m in counts])
        # mixed rows, in no order: marches that share basis counts, element
        # counts or neither, and a pencil march whose rows differ in both
        assert_march_matches_one_expm_per_row(
            n, [(3, 8), (8, 5), (1, 16), (3, 5), (8, 8), (5, 2), (3, 8), (1, 1), (8, 12), (5, 16)])
        monkeypatch.undo()


@pytest.mark.parametrize("n", [COMPLEX_MIN_SIZE - 1, COMPLEX_MIN_SIZE])
def test_only_real_form_rows_share_a_chunk(monkeypatch, n):
    # below the operand switch the default SPARE_BYTES puts several rows of a
    # sweep in one march; from it every row of a sweep over either count
    # marches alone.  The name keeps the word of the old layer, whose chunks
    # are now expm_each's marches
    sizes = record_marches(monkeypatch)
    expm_each(march_matrix(n), [(count, 2) for count in range(5, 41)])
    expm_each(march_matrix(n), [(8, m) for m in range(1, 13)])
    if n < COMPLEX_MIN_SIZE:
        assert max(sizes) > 1
    else:
        assert sizes == [1] * (36 + 12)


def test_expm_each_forms_the_pinned_marches(monkeypatch):
    # expm_each alone decides which rows march together: the dense solve
    # (n <= 2) marches one basis count; from n = 3 real-form rows march
    # together while their element counts do not grow and the march fits in
    # SPARE_BYTES, each row priced at 4 M + 3 complex n x n blocks of the
    # march's first basis count M, the arrays it keeps besides them and the
    # most its bound calls take (36 rows of m = 8 at n = 16, 24 at n = 24, 7 of
    # m = 16 at n = 32), and from n = 40 every row marches alone
    sizes = record_marches(monkeypatch, solve=False)
    elements = [(count, 8) for count in range(5, 41)]
    basis = [(8, m) for m in range(1, 41)]
    mixed = [(3, 8), (8, 5), (1, 16), (3, 5), (8, 8), (5, 2), (3, 8), (1, 1), (8, 12), (5, 16)]
    for n, rows, expected in (
            (2, elements, [36]),
            (2, basis, [1] * 40),
            (5, elements, [36]),
            (3, [(8, m) for m in range(5, 41)], [36]),
            (16, elements, [36]),
            (16, basis, [10, 14, 16]),
            (24, elements, [24, 12]),
            (32, [(count, 16) for count in range(5, 41)], [7] * 5 + [1]),
            (39, [(count, 2) for count in range(5, 41)], [29, 7]),
            (39, basis[:12], [6, 6]),
            (40, [(count, 2) for count in range(5, 41)], [1] * 36),
            (40, basis[:12], [1] * 12),
            (5, mixed, [2, 4, 2, 2])):
        sizes.clear()
        assert len(expm_each(np.eye(n), rows)) == len(rows)
        assert sizes == expected, f"n={n} rows={rows}"


@pytest.mark.parametrize("n", [9, 16, 24, 39])
def test_every_stacked_march_keeps_its_buffer(monkeypatch, n):
    # SPARE_BYTES bounds the memory of every pencil march of several rows:
    # each counts at most that, and so it is kept when it ends, on element
    # sweeps and on basis sweeps that expm_each splits into several marches
    store = fresh_store(monkeypatch)
    given, stacked = [], []

    def giving_back(march, _real=store.give_back):
        _real(march)
        given.append(march)

    def marching(a, rows, _real=propagator._pencil_propagate):
        given.clear()
        results = _real(a, rows)
        (march,) = given
        if len(rows) > 1:
            stacked.append(len(rows))
            assert march.nbytes <= propagator.SPARE_BYTES, f"n={n} rows={rows}"
            assert store._marches.get(march.key) is march, f"n={n} rows={rows}"
        return results

    monkeypatch.setattr(store, "give_back", giving_back)
    monkeypatch.setattr(propagator, "_pencil_propagate", marching)
    for rows in ([(count, 2) for count in range(5, 41)], [(count, 8) for count in range(5, 41)],
                 [(8, m) for m in range(1, 41)]):
        stacked.clear()
        assert len(expm_each(march_matrix(n), rows)) == len(rows)
        assert stacked, f"n={n} rows={rows}"


def test_dense_march_beyond_the_bound_is_not_kept(monkeypatch):
    # expm_each bounds no dense march: at n = 2, m = 40 the march over
    # E = 1..100 takes more than SPARE_BYTES.  Every row still equals its own
    # expm call to the bit, the store stays within its bound, and that march
    # is not kept, where the march over E = 1..59 is
    for top, kept in ((100, []), (59, [("dense", 2, 40, 59)])):
        store = fresh_store(monkeypatch)
        rows = [(count, 40) for count in range(1, top + 1)]
        results = expm_each(march_matrix(2), rows)
        assert_store_within_bound(store)
        assert [march.key for march in kept_marches()] == kept, top
        for (num_elements, num_basis), result in zip(rows, results):
            assert result.tobytes() == one_expm(2, num_elements, num_basis).tobytes(), num_elements


def test_stacked_march_checks_counts_before_any_solve(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("reached the solve")

    monkeypatch.setattr("fetexpm.propagator.assemble_system", failing)
    bind_kernels(monkeypatch, inv=failing, solve=failing)
    for size in (2, 3):
        for bad in ([(3, 8), (0, 8)], [(0, 8)], [(5, 8), (-1, 8), (2, 8)], [(3, 8), (3, 0)], [(3, -2)]):
            with pytest.raises(ValueError, match=">= 1"):
                expm_each(np.eye(size), bad)
        for bad in ([(3, 8), (2.5, 8)], [(8.0, 8)], [(4, 8), ("4", 8)], [(3, 5.5)], [(3, 8), (3, 8.0)]):
            with pytest.raises(TypeError):
                expm_each(np.eye(size), bad)
    # no row, no march
    assert expm_each(np.eye(3), []) == []


def test_stacked_march_reports_an_overflowing_row(monkeypatch):
    # one element of 800 I stays finite; 128 of them overflow, and so does the
    # march that carries both rows, without a warning, in either solve: over
    # element counts, over basis counts and over both
    for size in (1, 2, 3, 16):
        a = 800.0 * np.eye(size)
        assert np.isfinite(expm(a, 1).result).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in ([(1, 8), (128, 8)], [(128, 8), (1, 8)], [(1, 8), (2, 8), (128, 8), (3, 8)],
                         [(128, 5), (128, 8), (128, 2)], [(1, 5), (1, 8), (128, 6), (1, 2)]):
                with pytest.raises(OverflowError, match="solution"):
                    expm_each(a, rows)
    # a later march checks its own rows: with a SPARE_BYTES of three rows, the
    # overflowing row marches second.  30 elements of (40 + 4e-12) I put the
    # element width just off a pole of the m = 1 element map, and the m = 2
    # and 3 rows stay finite
    a = (40.0 + 4e-12) * np.eye(16)
    rows = [(30, 2), (30, 3), (30, 2), (30, 1)]
    assert all(np.isfinite(result).all() for result in expm_each(a, rows[:3]))
    monkeypatch.setattr("fetexpm.propagator.SPARE_BYTES", three_rows(16, 3))
    sizes = record_marches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="solution"):
            expm_each(a, rows)
    assert sizes == [3, 1]


def test_stacked_march_raises_on_a_singular_row(monkeypatch):
    # E = 3, m = 1 makes the block system of [[4.0]] (and the shifted block
    # of 4 I) exactly singular; a march that carries that row raises, over
    # element counts or basis counts alike
    for size in (1, 3):
        a = 4.0 * np.eye(size)
        with pytest.raises(np.linalg.LinAlgError):
            expm(a, 3, 1)
        for rows in ([(1, 1), (2, 1), (3, 1), (4, 1)], [(3, 5), (3, 1), (3, 8)]):
            with pytest.raises(np.linalg.LinAlgError):
                expm_each(a, rows)
        assert len(expm_each(a, [(1, 1), (2, 1), (4, 1)])) == 3
        assert len(expm_each(a, [(3, 5), (3, 2), (3, 8)])) == 3
    # so does a later march: with a SPARE_BYTES of three rows, the singular row
    # marches second, after three that are not
    monkeypatch.setattr("fetexpm.propagator.SPARE_BYTES", three_rows(3, 8))
    sizes = record_marches(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError):
        expm_each(4.0 * np.eye(3), [(3, 5), (3, 1), (3, 8), (3, 2)])
    assert sizes == [3, 1]


def test_singular_block_raises_through_each_bound_kernel(monkeypatch):
    # each bound kernel runs under np.linalg's errstate, scoped to its call: an
    # exactly singular system or shifted block (E = 3, m = 1 puts 4 I on a pole)
    # raises LinAlgError from the dense march's first solve and the pencil's
    # inversion, for single rows, stacked rows and complex operands, without
    # np.linalg.solve or np.linalg.inv, and leaves the caller's error state as it was
    def public(*args, **kwargs):
        raise AssertionError("reached np.linalg")

    def callers_call(err, flag):
        raise AssertionError("the caller's error call ran")

    monkeypatch.setattr(np.linalg, "solve", public)
    monkeypatch.setattr(np.linalg, "inv", public)
    fresh_store(monkeypatch)
    marches = record_marches(monkeypatch)
    with np.errstate(divide="ignore", over="raise", under="warn", invalid="print", call=callers_call):
        state = np.geterr(), np.geterrcall()
        # the rows of the singular row's march: the dense solve marches one basis
        # count, real forms stack both counts and complex rows march alone
        for size, march_rows in ((1, (1, 3, 1)), (2, (1, 3, 1)), (3, (1, 3, 3)), (5, (1, 3, 3)),
                                 (COMPLEX_MIN_SIZE, (1, 1, 1))):
            for rows, num_rows in zip(([(3, 1)], [(4, 1), (3, 1), (1, 1)], [(3, 5), (3, 1), (3, 8)]), march_rows):
                marches.clear()
                with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                    expm_each(4.0 * np.eye(size), rows)
                assert np.geterr() == state[0] and np.geterrcall() is state[1]
                assert marches[-1] == num_rows, (size, rows)


def byte_span(view, array):
    """The bytes of ``array`` that ``view``, an array of positive strides, covers."""
    start = view.ctypes.data - array.ctypes.data
    return start, start + sum((length - 1) * stride for length, stride in zip(view.shape, view.strides)) + view.itemsize


def test_pencil_march_stages_in_its_state_within_its_price():
    # the arrays a march writes share no memory, and each view lies inside its
    # own array, except the real-form stage, which lies over the start of the
    # state alone; a and the inverses, and their complex stage, are the
    # back-to-back runs that one real_form call writes; and after binding
    # every count of active rows a march counts no more than its price
    rng = np.random.default_rng(3700)
    layouts = ([(1, 8)], [(count, 5) for count in range(9, 0, -1)], [(3, m) for m in range(9, 0, -1)],
               [(count, count) for count in range(9, 0, -1)])
    for n, p, rows in itertools.product(range(1, 10), (1, 2), layouts):
        rows = [(count, build_tables(m)) for count, m in rows]
        march = propagator._PencilMarch(("test",), n, p, rows)
        m, num_blocks = rows[0][1].m, sum(tables.m for _, tables in rows)
        price = propagator._pencil_price(n, p, m, len(rows), num_blocks)
        for one, other in itertools.combinations(march.written, 2):
            assert not np.shares_memory(one, other), (n, p)
        # real forms stage a and the inverses over the start of the state,
        # which each call sets only after reading the stage
        home = march.state if p == 2 else march.forms
        owned = ((march.shifted, [march.diagonals]), (march.state, [march.psi_diagonal, march.blocks]),
                 (march.u_rows, [march.u_blocks]), (march.forms, [march.a_form, march.inverse]),
                 (home, [march.stage, march.staged_inverse]))
        for array, views in owned:
            for view in views:
                low, high = byte_span(view, array)
                assert 0 <= low < high <= array.nbytes, (n, p)
        assert march.stage.ctypes.data == home.ctypes.data
        for array in march.written:
            assert np.shares_memory(march.stage, array) == (array is home), (n, p)
        for stacked, first, rest in ((march.forms, march.a_form, march.inverse),
                                     (march.stage, march.stage[0], march.staged_inverse)):
            assert stacked.flags.c_contiguous and stacked.shape[0] == num_blocks + 1
            assert first.ctypes.data == stacked.ctypes.data
            assert rest.ctypes.data == stacked.ctypes.data + first.nbytes and rest.flags.c_contiguous
        if p == 2:
            march.stage[...] = rng.standard_normal(march.stage.shape) + 1j * rng.standard_normal(march.stage.shape)
            real_form(march.stage, out=march.forms)
            assert_array_equal(march.a_form, real_form(march.stage[0]))
            assert_array_equal(march.inverse, real_form(march.staged_inverse))
        for num_active in range(1, len(rows) + 1):
            march.bind(num_active)
        assert march.nbytes <= price, (n, p, [tables.m for _, tables in rows])
        # expm_each prices a march with every row at its first basis count
        assert price <= propagator._pencil_price(n, p, m, len(rows), len(rows) * m)


def fresh_store(monkeypatch):
    """An empty store of kept marches in place of the module's, for this test."""
    store = propagator._MarchStore()
    monkeypatch.setattr(propagator, "_kept_marches", store)
    return store


def bind_kernels(monkeypatch, **kernels):
    """An empty store, so that each march is built anew, for this test, and
    binds the LAPACK kernels given by name (``inv``, ``solve``) in place of
    numpy's."""
    module = {"inv": propagator._umath_linalg.inv, "solve": propagator._umath_linalg.solve, **kernels}
    monkeypatch.setattr(propagator, "_umath_linalg", types.SimpleNamespace(**module))
    return fresh_store(monkeypatch)


def kept_marches():
    """The marches kept between calls, least recently used first."""
    return list(propagator._kept_marches._marches.values())


def poison_kept_arrays():
    """Fill every array that the kept marches write with NaN."""
    for march in kept_marches():
        for array in march.written:
            array.view(np.float64).fill(np.nan)


def kept_march_calls():
    """Calls over every layout: single dense, real-form and complex rows, a
    dense and a stacked element sweep, a right-aligned basis sweep and a mixed
    row list."""
    calls = [functools.partial(lambda n, e, m: [expm(march_matrix(n), e, m).result], n, e, m)
             for n in (1, 2, 3, 16, 32, 40, 64) for e, m in ((8, 8), (3, 16), (1, 5))]
    calls.append(functools.partial(expm_each, march_matrix(2), [(count, 8) for count in range(1, 13)]))
    calls.append(functools.partial(expm_each, march_matrix(5), [(count, 8) for count in range(1, 13)]))
    calls.append(functools.partial(expm_each, march_matrix(3), [(3, m) for m in range(1, 17)]))
    calls.append(functools.partial(expm_each, march_matrix(16), [
        (3, 8), (8, 5), (1, 16), (3, 5), (8, 8), (5, 2), (3, 8), (1, 1), (8, 12), (5, 16)]))
    return calls


def assert_bitwise_equal(results, references):
    assert len(results) == len(references)
    for result, reference in zip(results, references):
        assert result.tobytes() == reference.tobytes()


def assert_store_within_bound(store):
    """The store's byte count is its marches' total, at most ``SPARE_BYTES``."""
    assert store.nbytes == sum(march.nbytes for march in store._marches.values())
    assert store.nbytes <= propagator.SPARE_BYTES


def fresh_references(monkeypatch, calls):
    """Each call's results with no march kept before it."""
    references = []
    for call in calls:
        fresh_store(monkeypatch)
        references.append(call())
    return references


def test_kept_buffer_holds_no_state(monkeypatch):
    # a kept march is only memory: with NaN in every byte of every array a
    # kept march writes before each call, each call is bitwise what it is with no march kept
    calls = kept_march_calls()
    references = fresh_references(monkeypatch, calls)
    store = fresh_store(monkeypatch)
    taken, given = [], []
    monkeypatch.setattr(store, "take", lambda key, _real=store.take: taken.append(key) or _real(key))
    monkeypatch.setattr(store, "give_back",
                        lambda march, _real=store.give_back: given.append(march.key) or _real(march))
    for _ in range(2):
        for call, reference in zip(calls, references):
            poison_kept_arrays()
            assert_bitwise_equal(call(), reference)
            # each march gives back the march of the layout it took, within the bound
            assert given == taken
            assert_store_within_bound(store)
    assert len(taken) > len(calls)


def test_alternating_sizes_hold_no_state(monkeypatch):
    # calls that alternate sizes, as expm_small's do, each find the march the
    # last call at their size left, NaN-poisoned, and give the same bits
    rng = np.random.default_rng(3535)
    calls = [functools.partial(lambda a: [expm(a).result], random_unit_disk(rng, n))
             for n in (4, 8, 4, 2, 8, 4, 8, 2, 2, 4)]
    references = fresh_references(monkeypatch, calls)
    fresh_store(monkeypatch)
    for _ in range(2):
        for call, reference in zip(calls, references):
            poison_kept_arrays()
            assert_bitwise_equal(call(), reference)
    assert len(kept_marches()) == 3


def test_consecutive_calls_march_in_the_same_kept_arrays(monkeypatch):
    marched_in = []

    def inverting(blocks, out, _real=propagator._umath_linalg.inv, **kwargs):
        marched_in.append((blocks.ctypes.data, out.ctypes.data))
        return _real(blocks, out=out, **kwargs)

    store = bind_kernels(monkeypatch, inv=inverting)
    a = march_matrix(32)
    expm(a)
    (kept,) = kept_marches()
    addresses = [array.ctypes.data for array in kept.written]
    expm(a)
    assert kept_marches() == [kept] and [array.ctypes.data for array in kept.written] == addresses
    # both calls inverted the same shifted blocks into the same stage, which
    # lies over the start of the state
    assert marched_in == [(kept.shifted.ctypes.data, kept.state.ctypes.data + kept.stage[0].nbytes)] * 2
    # with a cap below one march's count, nothing is kept
    monkeypatch.setattr(propagator, "SPARE_BYTES", kept.nbytes - 1)
    store = fresh_store(monkeypatch)
    expm(a)
    assert kept_marches() == [] and store.nbytes == 0


def test_repeat_call_reuses_its_kept_march(monkeypatch):
    # a march's arrays, views and bound calls depend on n and the basis counts
    # alone: a repeat call at a size it has run, whatever its matrix and element
    # count, neither allocates nor binds anything, and a call at a new size
    # builds its own march, without pricing it
    fresh_store(monkeypatch)
    built = []
    for march in (propagator._DenseMarch, propagator._PencilMarch):
        def binding(self, num_active, _real=march.bind):
            built.append("bind")
            return _real(self, num_active)

        monkeypatch.setattr(march, "bind", binding)
    for name in ("_pencil_price", "_DenseMarch", "_PencilMarch"):
        def counting(*args, _name=name, _real=getattr(propagator, name)):
            built.append(_name)
            return _real(*args)

        monkeypatch.setattr(propagator, name, counting)
    rng = np.random.default_rng(3536)
    for n, layout in ((2, ["_DenseMarch", "bind"]), (4, ["_PencilMarch", "bind"]), (8, ["_PencilMarch", "bind"]),
                      (40, ["_PencilMarch", "bind"])):
        built.clear()
        expm(random_unit_disk(rng, n), 3)
        assert built == layout, f"n={n}"
        for num_elements in (3, 1, 8):
            built.clear()
            expm(random_unit_disk(rng, n), num_elements)
            assert built == [], f"n={n} E={num_elements}"
        # another basis count is another layout
        built.clear()
        expm(random_unit_disk(rng, n), 3, 5)
        assert built == layout, f"n={n}"
    # a stacked march binds once per count of active rows, on the first call
    # (expm_each prices each row it admits with _pencil_price, every call)
    rows = [(count, 8) for count in range(1, 6)]
    for binds in (5, 0):
        built.clear()
        expm_each(random_unit_disk(rng, 5), rows)
        assert built.count("_PencilMarch") == min(binds, 1) and built.count("bind") == binds


def test_kept_marches_stay_within_the_bound(monkeypatch):
    # over many layouts, single rows and sweeps mixed, the store drops its
    # least recently used marches and its marches never take more than
    # SPARE_BYTES in all; the march just given back is always kept
    store = fresh_store(monkeypatch)
    layouts = set()
    for n in range(3, 40):
        a = march_matrix(n)
        for m in range(1, 17):
            if (n + m) % 4:
                expm(a, 1, m)
                rows = [(1, m)]
            else:
                rows = [(2, m), (1, m), (1, max(m - 3, 1))]
                expm_each(a, rows)
            assert_store_within_bound(store)
            layout = ("real", n) + tuple(sorted((m for _, m in rows), reverse=True))
            assert kept_marches()[-1].key == layout
            layouts.add(layout)
    # together the layouts run take more than SPARE_BYTES, so some were dropped
    assert len(kept_marches()) < len(layouts)


def test_store_counts_what_its_marches_keep(monkeypatch):
    # the store counts every array a kept march holds, those it writes and
    # those it keeps besides, such as the right-aligned coupling matrices of a basis
    # sweep, and the calls bind makes, one set per count of active rows of an
    # element sweep: after one sweep into an empty store, with its tables built
    # before, the memory still allocated is within a tenth of the store's count
    a = march_matrix(5)
    for rows in ([(8, m) for m in range(5, 41)], [(count, 8) for count in range(5, 41)]):
        fresh_store(monkeypatch)
        expm_each(a, rows)
        store = fresh_store(monkeypatch)
        tracemalloc.start()
        try:
            expm_each(a, rows)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        (march,) = kept_marches()
        outside = [march.shifts, march.block_rows, *([march.coupling] if len(march.runs) > 1 else [])]
        assert len(march.bound) == len(set(count for count, _ in rows))
        assert march.nbytes > sum(array.nbytes for array in march.written + outside)
        assert store.nbytes == march.nbytes <= retained <= 1.1 * store.nbytes, rows


def benchmark_op_kinds():
    """One call of each op kind the benchmark times, at its sizes and counts:
    expm at E = 8 on n = 32 and 64 (m = 8) and n = 32 (m = 16), expm at its
    defaults on n = 2, 4 and 8, the three table1 studies and the element
    and basis sweeps over 5..40 at n = 5 and 3."""
    rng = np.random.default_rng(3600)
    calls = [functools.partial(expm, random_unit_disk(rng, n), 8, m) for n, m in ((32, 8), (64, 8), (32, 16))]
    calls += [functools.partial(expm, random_unit_disk(rng, n)) for n in (2, 4, 8)]
    calls += [functools.partial(studies.table1, which) for which in studies.TABLE1_STEPS]
    calls += [functools.partial(studies.sweep, random_unit_disk(rng, n), (0, 0), vary)
              for n, vary in ((5, "elements"), (3, "basis"))]
    return calls


def test_second_pass_over_the_benchmark_builds_no_march(monkeypatch):
    # a march is built once per layout, so only the first call of each op kind
    # pays its set-up: a second pass over every kind finds every march kept
    fresh_store(monkeypatch)
    built = []
    for name in ("_DenseMarch", "_PencilMarch"):
        def building(*args, _name=name, _real=getattr(propagator, name)):
            built.append(_name)
            return _real(*args)

        monkeypatch.setattr(propagator, name, building)
    calls = benchmark_op_kinds()
    for call in calls:
        call()
    assert "_DenseMarch" in built and "_PencilMarch" in built
    built.clear()
    for call in calls:
        call()
    assert built == []


def test_failed_march_gives_its_buffer_back(monkeypatch):
    a = march_matrix(16)
    fresh_store(monkeypatch)
    reference = expm(a).result
    (kept,) = kept_marches()
    # a singular shifted block (E = 3, m = 1 puts 4 I on a pole) raises at set-up,
    # and so does the dense system of [[4.0]] at the same counts
    for size in (3, 1):
        with pytest.raises(np.linalg.LinAlgError):
            expm(4.0 * np.eye(size), 3, 1)
    assert len(kept_marches()) == 3 and kept_marches()[0] is kept
    poison_kept_arrays()
    assert expm(a).result.tobytes() == reference.tobytes()
    # the forced infinite inverse of test_pencil_overflowing_inverse_is_reported,
    # at the same layout as a's march, which it takes and gives back
    with monkeypatch.context() as patched:
        patched.setattr(kept, "invert", overflowing_inverse)
        with pytest.raises(OverflowError, match="solution"):
            expm(np.eye(16) / 4.0)
    assert len(kept_marches()) == 3 and kept_marches()[-1] is kept
    poison_kept_arrays()
    assert expm(a).result.tobytes() == reference.tobytes()


def test_threads_never_share_a_kept_buffer(monkeypatch):
    # more threads than cores, switching often: each runs expm on its own
    # matrix, or one expm_each sweep, again and again and checks every result
    # against the one computed beforehand on one thread; two marches in one
    # kept march's arrays would overwrite each other's state.  Two pairs of threads run
    # the same layouts, so they contend for one kept march
    store = fresh_store(monkeypatch)
    rng = np.random.default_rng(3131)
    jobs = [functools.partial(lambda a: [expm(a).result], random_unit_disk(rng, n))
            for n in (16, 40, 64, 16, 40, 2)]
    jobs.append(functools.partial(expm_each, random_unit_disk(rng, 8), [(count, 8) for count in range(1, 9)]))
    expected = [job() for job in jobs]
    mismatches, errors = [], []

    def work(job, reference):
        try:
            for _ in range(40):
                results = job()
                if [result.tobytes() for result in results] != [result.tobytes() for result in reference]:
                    mismatches.append(job)
        except Exception as exc:  # reported below, on the test's own thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=pair) for pair in zip(jobs, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []
    # the store keeps one march per layout, so no more than ran at once
    assert 1 <= len(kept_marches()) <= 5
    assert_store_within_bound(store)
