import numpy as np
import pytest

from fetexpm import expm, propagator, studies
from fetexpm.studies import min_basis_for_tolerance, sweep, table1
from fetexpm.oracles import exact_m1, exact_m2, m1, m2, m3, m4


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


def test_min_basis_checks_the_reference_before_any_expm(monkeypatch):
    calls = []
    real = studies.expm_each

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(studies, "expm_each", counting)
    with pytest.raises(ValueError, match="dimension mismatch"):
        min_basis_for_tolerance(m1(), np.zeros((3, 3)), 8)
    reference = exact_m1()
    reference[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        min_basis_for_tolerance(m1(), reference, 8)
    assert calls == []


def test_table1_shape_and_row_order():
    rows = table1("m2", max_basis=12)
    assert [steps for steps, _ in rows] == [1, 2, 4, 8, 15, 40]
    found = dict(rows)
    assert found[4] == 8
    assert found[8] == 7


def test_table1_pins_every_row():
    # every row the paper's study prints, at the default tolerance 1e-14 and
    # max basis 40; the (m1, 5) row is 10 only because the error at m = 9 is
    # 1.07e-14, so a rounding change at n <= 2 fails here first
    assert {which: table1(which) for which in ("unit2", "m1", "m2")} == {
        "unit2": [(1, 11), (2, 9), (4, 8), (8, 7), (16, 6), (58, 5)],
        "m1": [(5, 10), (8, 7), (16, 6), (50, 5), (256, 5)],
        "m2": [(1, 11), (2, 9), (4, 8), (8, 7), (15, 6), (40, 6)],
    }


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


def test_sweep_over_elements_marches_once(monkeypatch):
    # a sweep over either count makes one expm_each call, from n = 3 one march,
    # and every row is bitwise equal to one expm call per row
    calls, marches = [], []
    real, real_march = studies.expm_each, propagator._march

    def counting(a, rows):
        calls.append(list(rows))
        return real(a, rows)

    def counting_march(a, rows):
        marches.append(len(rows))
        return real_march(a, rows)

    monkeypatch.setattr(studies, "expm_each", counting)
    monkeypatch.setattr(propagator, "_march", counting_march)
    for a, entry in ((m2(), (1, 0)), (m3(), (4, 4)), (m4(), (2, 2))):
        reference = studies.expm_taylor_squaring(a)
        sweeps = (("elements", [(e, 6) for e in range(3, 13)]), ("basis", [(6, m) for m in range(3, 13)]))
        for vary, rows in sweeps:
            calls.clear()
            marches.clear()
            swept = sweep(a, entry=entry, vary=vary, fixed=6, lo=3, hi=12)
            assert calls == [rows]
            # the dense solve (n = 2) marches each basis count on its own
            assert marches == ([1] * 10 if vary == "basis" and a.shape[0] == 2 else [10])
            for row in swept:
                result = expm(a, row.num_elements, row.num_basis).result
                assert row.selected_entry == complex(result[entry])
                assert row.max_abs_error == float(np.max(np.abs(result - reference)))


def test_table1_search_marches_the_counts_still_searching(monkeypatch):
    # one call per basis count, over the counts whose error has not yet met
    # the tolerance; unit2's rows need 11, 9, 8, 7, 6 and 5 basis functions
    calls = []
    real = studies.expm_each

    def counting(a, rows):
        calls.append(list(rows))
        return real(a, rows)

    monkeypatch.setattr(studies, "expm_each", counting)
    rows = table1("unit2")
    steps = studies.TABLE1_STEPS["unit2"]
    expected = [[(e, m) for e, found in rows if found >= m] for m in range(1, 12)]
    assert calls == expected
    assert calls[0] == [(e, 1) for e in steps] and calls[-1] == [(1, 11)]
    # a count that no basis count up to max_basis serves is searched to the end
    calls.clear()
    assert studies._min_basis_search(m2(), exact_m2(), (1, 4), 1e-14, 9) == [None, 8]
    assert calls == [[(1, m), (4, m)] for m in range(1, 9)] + [[(1, 9)]]


def test_singular_row_raises_from_both_studies(monkeypatch):
    # E = 3, m = 1 makes the block system of [[4.0]] exactly singular; the
    # march that carries that row raises, as one expm per row did
    with pytest.raises(np.linalg.LinAlgError):
        sweep([[4.0]], entry=(0, 0), fixed=1, lo=1, hi=5)
    with pytest.raises(np.linalg.LinAlgError):
        min_basis_for_tolerance([[4.0]], [[np.exp(4.0)]], 3)
    monkeypatch.setitem(studies.TABLE1_STEPS, "m2", (1, 2, 3, 4))
    monkeypatch.setitem(studies.NAMED_MATRICES, "m2", lambda: np.array([[4.0]]))
    monkeypatch.setitem(studies.EXACT_EXPM, "m2", lambda: np.array([[np.exp(4.0)]]))
    with pytest.raises(np.linalg.LinAlgError):
        table1("m2")
