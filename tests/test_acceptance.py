"""Acceptance gate: every shipped accuracy claim, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
on failure) and asserts the criterion at its stated tolerance.
"""

import numpy as np

from brute_force import brute_force_rhs, brute_force_system
from chebyshev_oracle import integrated_chebyshev
from matrix_distance import max_abs_diff
from random_matrices import random_unit_disk
from fetexpm import expm, expm_taylor_squaring, format_matrix, parse_matrix
from fetexpm.basis import build_tables
from fetexpm.cli import main
from fetexpm.oracles import exact_m1, exact_m2, exact_unit2, m1, m2, m3, m4, unit2
from fetexpm.studies import min_basis_for_tolerance


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def sig_digits(x, count):
    """First ``count`` significant decimal digits of |x|, truncated."""
    mantissa = f"{abs(x):.20e}".partition("e")[0].replace(".", "")
    return mantissa[:count]


def test_criterion_1_stiff_canonical_run():
    err = max_abs_diff(expm(m1(), 8, 8).result, exact_m1())
    check("C1 m1 canonical run", err <= 5e-13, f"max_abs_diff={err:.3e} (limit 5e-13)")


def test_criterion_2_rotation_canonical_run():
    err = max_abs_diff(expm(m2(), 8, 8).result, exact_m2())
    check("C2 m2 canonical run", err <= 5e-14, f"max_abs_diff={err:.3e} (limit 5e-14)")


def test_criterion_3_minimum_basis_spot_rows():
    found = {
        ("unit2", 1): min_basis_for_tolerance(unit2(), exact_unit2(), 1),
        ("unit2", 8): min_basis_for_tolerance(unit2(), exact_unit2(), 8),
        ("m1", 16): min_basis_for_tolerance(m1(), exact_m1(), 16),
        ("m2", 4): min_basis_for_tolerance(m2(), exact_m2(), 4),
    }
    wanted = {("unit2", 1): 11, ("unit2", 8): 7, ("m1", 16): 6, ("m2", 4): 8}
    check("C3 minimum-basis spot rows", found == wanted, f"found={found}")


def test_criterion_4_large_real_matrix_saturation():
    saturated = all(
        sig_digits(expm(m3(), e, m).result[4, 4].real, 13) == "3210309305973"
        for e, m in ((5, 8), (40, 8), (8, 40))
    )
    degraded = sig_digits(expm(m3(), 8, 5).result[4, 4].real, 9) == "321030931"
    check(
        "C4 m3 entry (5,5) saturation",
        saturated and degraded,
        "13 digits at (5,8)/(40,8)/(8,40), 9 digits at (8,5)",
    )


def test_criterion_5_complex_matrix_saturation():
    ok = True
    for e, m in ((5, 8), (40, 8), (8, 40)):
        value = expm(m4(), e, m).result[2, 2]
        ok = ok and sig_digits(value.real, 13) == "5119771222980"
        ok = ok and sig_digits(value.imag, 12) == "897728113135"
        ok = ok and value.real < 0 and value.imag < 0
    weak = expm(m4(), 8, 5).result[2, 2]
    ok = ok and sig_digits(weak.real, 8) == "51197712"
    ok = ok and sig_digits(weak.imag, 7) == "8977281"
    ok = ok and sig_digits(weak.real, 13) != "5119771222980"  # genuinely degraded
    check("C5 m4 entry (3,3) saturation", ok, "13/12 digits saturated, ~8 at (8,5)")


def test_criterion_6_table_oracle_equivalence():
    m = 40
    tables = build_tables(m)
    nodes = np.cos((2 * np.arange(1, 65) - 1) * np.pi / 128.0)
    w = np.pi / 64.0
    t_vals = np.zeros((m + 1, 64))
    t_vals[0] = 1.0
    t_vals[1] = nodes
    for mu in range(2, m + 1):
        t_vals[mu] = 2.0 * nodes * t_vals[mu - 1] - t_vals[mu - 2]
    s_vals = np.array([[integrated_chebyshev(mu, t) for t in nodes] for mu in range(m)])
    worst = max(
        np.max(np.abs(tables.deriv - w * (s_vals @ t_vals[:m].T))),
        np.max(np.abs(tables.overlap - w * (s_vals @ s_vals.T))),
        np.max(np.abs(tables.load - w * s_vals.sum(axis=1))),
    )
    symmetric = np.max(np.abs(tables.overlap - tables.overlap.T))
    first_col = (tables.load == tables.deriv[:, 0]).all()
    check(
        "C6 table oracle equivalence",
        worst <= 1e-13 and symmetric <= 1e-15 and first_col,
        f"quadrature diff={worst:.3e}, asymmetry={symmetric:.1e}, load==deriv[:,0]={first_col}",
    )


def test_criterion_7_property_suite():
    rng = np.random.default_rng(20260809)
    eye = np.eye(4)
    worst = {"oracle": 0.0, "inverse": 0.0, "group": 0.0, "det_trace": 0.0}
    for _ in range(100):
        a = random_unit_disk(rng, 4)
        full = expm(a).result
        worst["oracle"] = max(worst["oracle"], max_abs_diff(full, expm_taylor_squaring(a)))
        worst["inverse"] = max(worst["inverse"], max_abs_diff(full @ expm(-a).result, eye))
        half = expm(a / 2.0).result
        worst["group"] = max(worst["group"], max_abs_diff(full, half @ half))
        det = np.linalg.det(full)
        ref = np.exp(np.trace(a))
        worst["det_trace"] = max(worst["det_trace"], abs(det - ref) / abs(ref))
    zero_exact = (expm(np.zeros((4, 4))).result == eye).all()
    ok = (
        worst["oracle"] <= 1e-12
        and worst["inverse"] <= 1e-11
        and worst["group"] <= 1e-11
        and worst["det_trace"] <= 1e-10
        and zero_exact
    )
    check(
        "C7 property suite (100 random 4x4)",
        ok,
        "worst: " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f", exp(0)==I exact={zero_exact}",
    )


def test_criterion_8_assembly_matches_brute_force_bitwise():
    from fetexpm.propagator import assemble_rhs, assemble_system

    rng = np.random.default_rng(88)
    ok = True
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            a = random_unit_disk(rng, n)
            psi = random_unit_disk(rng, n)
            tables = build_tables(m)
            scale = 2.0 * n + 4.0
            system = assemble_system(a, scale, tables)
            ok = ok and (system == brute_force_system(a, scale, tables)).all()
            rhs = assemble_rhs(a, psi, tables.load)
            ok = ok and rhs.shape == (n * m, n)
            for col in range(n):
                ok = ok and (rhs[:, col] == brute_force_rhs(a, psi, tables.load, col)).all()
    check("C8 brute-force assembly equivalence", bool(ok), "bitwise for n<=3, m<=4")


def test_criterion_9_cli_roundtrip_and_determinism(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path.write_text(format_matrix(a))

    assert main(["expm", str(path)]) == 0
    printed = capsys.readouterr().out
    parsed = parse_matrix(printed)
    assert main(["expm", str(path)]) == 0
    reprint = capsys.readouterr().out
    roundtrip = parse_matrix(format_matrix(parsed)).tobytes() == parsed.tobytes()
    stable_expm = reprint == printed

    assert main(["table1", "m2", "--max-basis", "10"]) == 0
    table_a = capsys.readouterr().out
    assert main(["table1", "m2", "--max-basis", "10"]) == 0
    table_b = capsys.readouterr().out

    assert main(["sweep", "m4", "--entry", "3,3", "--range", "5:8"]) == 0
    sweep_a = capsys.readouterr().out
    assert main(["sweep", "m4", "--entry", "3,3", "--range", "5:8"]) == 0
    sweep_b = capsys.readouterr().out

    ok = roundtrip and stable_expm and table_a == table_b and sweep_a == sweep_b
    check(
        "C9 CLI round-trip and determinism",
        ok,
        f"roundtrip={roundtrip}, stable output={stable_expm and table_a == table_b and sweep_a == sweep_b}",
    )
