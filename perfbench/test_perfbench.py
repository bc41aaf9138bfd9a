"""Tests of the benchmark itself: smoke runs, the correctness gate, tracing and the speed fit.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fetexpm  # noqa: E402
import fetexpm.cli  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_and_reports_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    end_to_end, per_layer, names = _declared()
    want = per_layer if trace else end_to_end
    assert sorted(results) == sorted(names)
    for result in results.values():
        assert result["correct"] is True
        assert result["attempted"] >= 1
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "expm_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _random_matrix(n, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n


def test_expm_gate_rejects_a_perturbed_result():
    a = _random_matrix(4)
    reference = scipy.linalg.expm(a)
    result = fetexpm.expm(a).result
    assert workloads.check_expm(result, reference).ok
    perturbed = result.copy()
    perturbed[1, 2] += 10 * workloads.EXPM_TOL * np.max(np.abs(reference))
    assert not workloads.check_expm(perturbed, reference).ok
    perturbed[1, 2] = np.nan
    assert not workloads.check_expm(perturbed, reference).ok



class _StillProbe:
    """Stands in for the speed probe: every op takes 1 ms at a kernel rate of 1000/s."""

    def restart(self):
        pass

    def start(self):
        pass

    def stop(self):
        return 1e-3, 1e3


def test_a_known_defect_miss_lowers_ok_frac_but_a_broken_result_fails_the_op():
    import run  # sets the BLAS thread variables, which numpy has already read here

    a = _random_matrix(2)
    reference = scipy.linalg.expm(a)
    miss = reference * (1 + 10 * workloads.EXPM_TOL)

    def op(result, expected_defect=True):
        def call():
            if result is None:
                raise RuntimeError("broken")
            return result
        return workloads.Op("n2", call, lambda r: np.ascontiguousarray(r).tobytes(),
                            lambda out: workloads.check_expm(
                                np.frombuffer(out, np.complex128).reshape(2, 2), reference),
                            expected_defect=expected_defect)

    record = run.Run()
    run.run_ops([op(reference), op(miss)], record, _StillProbe())
    assert (record.attempted, record.failed, record.defect_misses) == (2, 0, 1)
    # outside the known-defect class a miss fails the op, and so do a raise
    # or a non-finite result inside it
    nan = reference.copy()
    nan[0, 0] = np.nan
    run.run_ops([op(miss, expected_defect=False), op(None), op(nan)], record, _StillProbe())
    assert (record.attempted, record.failed, record.defect_misses) == (5, 3, 1)
    assert len(record.failures) == 3

def test_table1_gate_rejects_a_changed_row():
    text = "time_steps,min_basis_functions\n1,11\n2,9\n4,8\n8,7\n16,6\n58,5\n"
    assert workloads.check_table1("unit2", text).ok
    assert not workloads.check_table1("unit2", text.replace("8,7", "8,8")).ok
    assert not workloads.check_table1("unit2", text.replace("58,5\n", "")).ok


def test_sweep_gate_rejects_a_perturbed_saturated_row(tmp_path):
    a = _random_matrix(3)
    matrix, out = tmp_path / "a.txt", tmp_path / "out.csv"
    workloads._write_matrix(matrix, a)
    lo, hi = 9, 12
    argv = ["sweep", str(matrix), "--vary", "basis", "--range", f"{lo}:{hi}", "--output", str(out)]
    assert fetexpm.cli.main(argv) == 0
    text = out.read_text()
    reference = scipy.linalg.expm(a)
    verdict = workloads.check_sweep(text, reference, "basis", lo, hi)
    assert verdict.ok and len(verdict.digits) == 1
    header, *rows = text.strip().splitlines()
    steps, basis, re, im, err = rows[-1].split(",")

    def gate(last):
        return workloads.check_sweep("\n".join([header, *rows[:-1], *last]), reference, "basis", lo, hi)

    assert gate([rows[-1]]).ok
    # the bottom-right entry is off
    assert not gate([",".join([steps, basis, repr(float(re) + 1e-9), im, err])]).ok
    # the entry is right, but the program's whole-matrix error says another entry is off
    assert not gate([",".join([steps, basis, re, im, repr(1e-9)])]).ok
    assert not gate([",".join([steps, basis, re, im, "nan"])]).ok
    assert not gate([]).ok


def test_tracer_wraps_every_binding_keeps_results_bitwise_and_restores():
    a = _random_matrix(3)
    plain = fetexpm.expm(a, 2, 3).result
    original = fetexpm.dense.lu_solve
    tracer = spans.Tracer()
    with tracer:
        assert fetexpm.propagator.lu_solve is not original
        assert fetexpm.lu_solve is fetexpm.propagator.lu_solve is fetexpm.dense.lu_solve
        traced = fetexpm.expm(a, 2, 3).result
    assert fetexpm.dense.lu_solve is original and fetexpm.propagator.lu_solve is original
    assert traced.tobytes() == plain.tobytes()
    metrics = tracer.metrics()
    assert metrics["propagator.expm.calls"] == 1
    assert metrics["dense.lu_solve.calls"] == 2 * 3  # one per column per element
    assert metrics["dense.lu_factor.flop"] == pytest.approx(8 * 9**3 / 3)
    assert metrics["dense.lu_solve.flop"] == pytest.approx(6 * 8 * 9**2)
    assert 0 <= metrics["propagator.expm.self_s"] <= metrics["propagator.expm.s"]
    assert set(metrics) == set(spans.per_layer_units())
    assert tracer.absent == []


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.delattr(fetexpm.dense, "max_abs_diff")
    tracer = spans.Tracer()
    with tracer:
        fetexpm.expm(_random_matrix(2), 1, 2)
    assert tracer.absent == ["dense.max_abs_diff"]
    assert tracer.metrics()["dense.max_abs_diff.calls"] == 0


def test_speed_fit_recovers_the_exponent_of_contention():
    rng = np.random.default_rng(0)
    samples = []
    for kind, cost in (("a", 0.1), ("b", 1.0)):
        for kernel_s in rng.uniform(0.8e-3, 1.8e-3, 20):
            samples.append((kind, cost * (kernel_s / 1e-3) ** 0.6, 1.0 / kernel_s))
    assert speed.sensitivity(samples) == pytest.approx(0.6)
    steady = [("a", 0.1 + 1e-4 * i, 1e3) for i in range(10)]
    assert math.isnan(speed.sensitivity(steady))
