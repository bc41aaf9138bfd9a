import numpy as np
import pytest

from fetexpm import min_basis_for_tolerance, studies, sweep, table1
from fetexpm.oracles import exact_m2, m2, m3, m4


def test_min_basis_finds_known_value():
    assert min_basis_for_tolerance(m2(), exact_m2(), num_elements=4) == 8


def test_min_basis_returns_none_when_unreachable():
    assert min_basis_for_tolerance(m2(), exact_m2(), num_elements=1, max_basis=5) is None


def test_min_basis_rejects_meaningless_tolerance():
    for tolerance in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError):
            min_basis_for_tolerance(m2(), exact_m2(), num_elements=4, tolerance=tolerance)


def test_min_basis_rejects_bad_max_basis():
    # a scan over no basis counts would read as "unreachable" on every row
    for bad in (0, -1):
        with pytest.raises(ValueError):
            min_basis_for_tolerance(m2(), exact_m2(), num_elements=4, max_basis=bad)
        with pytest.raises(ValueError):
            table1("m1", max_basis=bad)
    with pytest.raises(TypeError):
        min_basis_for_tolerance(m2(), exact_m2(), num_elements=4, max_basis=8.5)
    with pytest.raises(TypeError):
        table1("m2", max_basis=8.5)


def test_table1_shape_and_row_order():
    rows = table1("m2", max_basis=12)
    assert [steps for steps, _ in rows] == [1, 2, 4, 8, 15, 40]
    found = dict(rows)
    assert found[4] == 8
    assert found[8] == 7


def test_table1_rejects_unknown_matrix():
    with pytest.raises(ValueError):
        table1("m3")


def test_sweep_zero_matrix_is_constant():
    rows = sweep(np.zeros((2, 2)), entry=(0, 0), lo=5, hi=9)
    assert [r.num_elements for r in rows] == [5, 6, 7, 8, 9]
    assert all(r.num_basis == 8 for r in rows)
    assert all(r.selected_entry == 1.0 for r in rows)
    assert all(r.max_abs_error == 0.0 for r in rows)


def test_sweep_varies_basis_when_asked():
    rows = sweep(m2(), entry=(1, 0), vary="basis", fixed=4, lo=5, hi=7)
    assert [(r.num_elements, r.num_basis) for r in rows] == [(4, 5), (4, 6), (4, 7)]


def test_sweep_saturated_entry_of_large_real_matrix():
    # entry (5,5) stabilises to 3.210309305973... once parameters reach 5/8
    for num_elements in (5, 40):
        rows = sweep(m3(), entry=(4, 4), lo=num_elements, hi=num_elements)
        value = rows[0].selected_entry.real
        assert f"{value:.15f}".startswith("3.210309305973")


def test_sweep_degraded_complex_run_matches_reference_digits():
    rows = sweep(m4(), entry=(2, 2), vary="basis", lo=5, hi=5)
    value = rows[0].selected_entry
    assert abs(value.real - (-0.511977121264660)) <= 1e-13
    assert abs(value.imag - (-0.089772810979965)) <= 1e-13


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep(m2(), entry=(0, 0), vary="columns")
    with pytest.raises(ValueError):
        sweep(m2(), entry=(0, 0), lo=9, hi=5)
    with pytest.raises(ValueError):
        sweep(m2(), entry=(2, 0))
    with pytest.raises(ValueError):
        sweep(m2(), entry=(0, 0), fixed=0)


def test_sweep_reads_counts_as_integers_before_the_reference(monkeypatch):
    references = []
    real = studies.expm_taylor_squaring

    def counting(a):
        references.append(1)
        return real(a)

    monkeypatch.setattr(studies, "expm_taylor_squaring", counting)
    # a count that is not an integer, or an entry outside the matrix, fails
    # before the reference is paid for
    for bad in ({"lo": 5.0, "hi": 6}, {"lo": 5, "hi": 6.0}, {"fixed": 8.5}, {"entry": (0.5, 0)}):
        with pytest.raises(TypeError):
            sweep(m2(), **{"entry": (0, 0), **bad})
    with pytest.raises(ValueError, match="out of range"):
        sweep(m2(), entry=(2, 0))
    assert references == []
    # an integer-like entry is read as its index
    rows = sweep(m2(), entry=(True, 1), lo=5, hi=5)
    assert rows[0].selected_entry == sweep(m2(), entry=(1, 1), lo=5, hi=5)[0].selected_entry
    # integer-like counts arrive in the rows as plain ints
    for fixed in (np.int64(8), True):
        rows = sweep(m2(), entry=(0, 0), vary="basis", fixed=fixed, lo=np.int32(5), hi=6)
        for row in rows:
            assert type(row.num_elements) is int and type(row.num_basis) is int
        assert [(r.num_elements, r.num_basis) for r in rows] == [(int(fixed), 5), (int(fixed), 6)]
