"""Workloads of the fetexpm benchmark: seeded inputs, one op each, and the correctness gate.

An op is one ``fetexpm.expm`` call or one in-process CLI study invocation.
Ops come in blocks; a block is one cycle through a workload's mix, so every
block has the same composition and a run that stops at a block boundary
always measures the same mix.  Inputs come only from the seed.
"""

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

# an expm op fails when its max-abs error relative to max|exp(A)| exceeds this
EXPM_TOL = 1e-6
# At saturated (E, m) a sweep row's entry must be this close to scipy, and its
# whole-matrix error against the program's Taylor oracle this small, both
# relative to max|exp(A)|
SWEEP_TOL = 1e-11
# Saturated settings: m >= 8 at E = 8, or E >= 10 at m = 8.  m3 itself is
# saturated from E = 5, but random matrices with its 1-norm have up to twice
# its spectral radius, and about 3% of them miss SWEEP_TOL at E = 5 (none of
# 600 at E = 10, worst 5e-13).
SATURATED_BASIS = 8
SATURATED_ELEMENTS = 10
DIGITS_CAP = 16.0
# At its defaults (E=8, m=8) the propagator loses accuracy as the 1-norm
# grows: the first misses of EXPM_TOL appear near 15, the worst below 10 is
# 2e-9.  Misses at or above this norm are the known accuracy defect: the op
# returned a finite result of the right shape, so it is not a failed op; the
# miss is counted apart and lowers ok_frac, and its digits are left out of
# the digit metrics.  A miss below it means the program broke and fails the op.
KNOWN_DEFECT_NORM = 10.0
# Digit metrics of expm_small come from inputs below this 1-norm, where the
# defaults are saturated: the error there is rounding, which a refactor of the
# arithmetic can change, not discretisation, which varies with each random
# matrix and would make the minimum jump from seed to seed.
DIGITS_NORM = 1.0
# In the studies an op's digits are the median over its basis-sweep rows
# with m >= 10, where the error has levelled off at rounding.  The element
# sweep at m = 8 levels off at 1e-13 to 1e-15 relative to scipy, a floor that
# varies from matrix to matrix; it is gated but gives no digits.
DIGITS_BASIS = 10

# minimum-basis rows of the paper's table 1, as the seed computes them
TABLE1_ROWS = {
    "unit2": [(1, 11), (2, 9), (4, 8), (8, 7), (16, 6), (58, 5)],
    "m1": [(5, 10), (8, 7), (16, 6), (50, 5), (256, 5)],
    "m2": [(1, 11), (2, 9), (4, 8), (8, 7), (15, 6), (40, 6)],
}
# 1-norms of the built-in matrices m3 (5x5 real) and m4 (3x3 complex)
M3_NORM = 6.6
M4_NORM = 2.0 + 2.0 * math.sqrt(2.0)

LARGE_MIX = ((32, 8), (64, 8), (32, 16))  # (n, m) at E=8
SMALL_SIZES = (2, 4, 8)
SMALL_FAMILIES = ("dense", "skew_hermitian", "non_normal", "stiff")
# one 1-norm per decade of [1e-2, 1e2] for each (family, n), so every block
# carries the same share of large-norm inputs
SMALL_DECADES = (-2, -1, 0, 1)
# Where in its decade an input's 1-norm falls steps by this fraction of a
# decade from one block to the next, from a random start per (family, n,
# decade): each spec's norms stay log-uniform but cover the decade evenly,
# so the count of inputs above the known-defect norm varies less from run to
# run (the ok_frac spread over ten seeds fell from 0.8% to 0.3%)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWEEP_RANGE = (5, 40)


@dataclass
class Verdict:
    """Outcome of checking one op's output."""

    ok: bool
    digits: list = field(default_factory=list)
    detail: str = ""
    # the output is well formed and its only fault is an error above EXPM_TOL
    miss: bool = False


@dataclass
class Op:
    """One timed call into the program plus the untimed check of what it produced.

    ``call`` is the only timed part.  ``collect`` turns its return value into
    bytes that identify the output (traced and untraced runs must agree on
    them) and ``check`` gates those bytes.
    """

    kind: str
    call: Callable[[], object]
    collect: Callable[[object], bytes]
    check: Callable[[bytes], Verdict]
    expected_defect: bool = False
    repeated: bool = False
    ref_seconds: float = 0.0


def digits_of(rel_err: float) -> float:
    """Correct digits from a relative error, capped at DIGITS_CAP."""
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def check_expm(result: np.ndarray, reference: np.ndarray, keep_digits: bool = True) -> Verdict:
    """Gate one exponential against its reference; report its digits if ``keep_digits``."""
    result = np.asarray(result)
    if result.shape != reference.shape:
        return Verdict(False, [], f"shape {result.shape} != {reference.shape}")
    if not np.isfinite(result).all():
        return Verdict(False, [], "non-finite entries")
    rel = float(np.max(np.abs(result - reference)) / np.max(np.abs(reference)))
    digits = [digits_of(rel)] if keep_digits else []
    return Verdict(rel <= EXPM_TOL, digits, f"relative error {rel:.3e}", miss=rel > EXPM_TOL)


def check_table1(which: str, text: str) -> Verdict:
    """Table-1 CSV must reproduce the seed's rows exactly."""
    want = ["time_steps,min_basis_functions"]
    want += [f"{steps},{basis}" for steps, basis in TABLE1_ROWS[which]]
    got = text.strip().splitlines()
    return Verdict(got == want, [], "" if got == want else f"rows {got[1:]}")


def check_sweep(text: str, reference: np.ndarray, vary: str, lo: int, hi: int) -> Verdict:
    """Sweep CSV: one row per value, and saturated rows within SWEEP_TOL.

    The CSV carries the bottom-right entry, checked against scipy, and the
    max-abs error of the whole matrix against the program's Taylor oracle,
    which covers the other entries.  Both are taken relative to
    max|exp(A)|.  The verdict's digits, from the entry, are the median over
    the rows that DIGITS_BASIS selects, if any.
    """
    lines = text.strip().splitlines()
    if not lines or lines[0] != "time_steps,basis_functions,entry_re,entry_im,max_abs_error":
        return Verdict(False, [], "bad header")
    rows = lines[1:]
    if len(rows) != hi - lo + 1:
        return Verdict(False, [], f"{len(rows)} rows for range {lo}:{hi}")
    n = reference.shape[0]
    exact = reference[n - 1, n - 1]
    scale = float(np.max(np.abs(reference)))
    digits = []
    for value, row in zip(range(lo, hi + 1), rows):
        try:
            steps, basis, re, im, err = row.split(",")
            steps, basis, entry = int(steps), int(basis), complex(float(re), float(im))
            err = float(err)
        except ValueError:
            return Verdict(False, [], f"unparsable row {row!r}")
        if (steps, basis) != ((value, 8) if vary == "elements" else (8, value)):
            return Verdict(False, [], f"row {row!r} out of order")
        if not (math.isfinite(abs(entry)) and math.isfinite(err) and err >= 0.0):
            return Verdict(False, [], f"non-finite row {row!r}")
        saturated = basis >= SATURATED_BASIS if vary == "basis" else steps >= SATURATED_ELEMENTS
        if saturated:
            rel = abs(entry - exact) / scale
            if rel > SWEEP_TOL:
                return Verdict(False, [], f"row {row!r}: relative error {rel:.3e}")
            if err / scale > SWEEP_TOL:
                return Verdict(False, [], f"row {row!r}: whole-matrix relative error {err / scale:.3e}")
            if vary == "basis" and basis >= DIGITS_BASIS:
                digits.append(digits_of(rel))
    return Verdict(True, [statistics.median(digits)] if digits else [])


def _norm1(a: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(a), axis=0)))


def _scaled(a: np.ndarray, norm: float) -> np.ndarray:
    return a * (norm / _norm1(a))


def _complex_gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _family(rng, family: str, n: int) -> np.ndarray:
    if family == "dense":
        return _complex_gaussian(rng, n)
    if family == "skew_hermitian":
        b = _complex_gaussian(rng, n)
        return b - b.conj().T
    if family == "non_normal":
        return np.triu(_complex_gaussian(rng, n))
    if family == "stiff":
        # real spectrum spread over two decades, like -1 ... -100
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * -np.geomspace(1.0, 100.0, n)) @ q.T
    raise ValueError(family)


def _reference(a: np.ndarray):
    start = time.perf_counter()
    ref = scipy.linalg.expm(a)
    return ref, time.perf_counter() - start


def _expm_op(fetexpm, kind, a, num_basis, expected_defect=False, keep_digits=True) -> Op:
    ref, ref_seconds = _reference(a)
    return Op(
        kind=kind,
        call=lambda: fetexpm.expm(a, num_elements=8, num_basis=num_basis),
        collect=lambda report: np.ascontiguousarray(report.result).tobytes(),
        check=lambda out: check_expm(
            np.frombuffer(out, np.complex128).reshape(ref.shape), ref, keep_digits),
        expected_defect=expected_defect,
        ref_seconds=ref_seconds,
    )


def expm_large_blocks(fetexpm, rng, smoke=False):
    """Blocks of three ops, one per (n, m) of LARGE_MIX; dense and upper-triangular alternate."""
    mix = ((3, 8), (4, 8), (3, 16)) if smoke else LARGE_MIX
    count = 0
    while True:
        block = []
        for n, m in mix:
            a = _complex_gaussian(rng, n)
            if count % 2:
                a = np.triu(a)
            a = _scaled(a, 10.0 ** rng.uniform(math.log10(0.5), math.log10(2.0)))
            block.append(_expm_op(fetexpm, f"n{n}_m{m}", a, m))
            count += 1
        yield block


def expm_small_blocks(fetexpm, rng, smoke=False):
    """Blocks of 48 ops: every (family, n) once per decade of 1-norm, in shuffled order."""
    sizes = (2,) if smoke else SMALL_SIZES
    specs = [(f, n, d) for f in SMALL_FAMILIES for n in sizes for d in SMALL_DECADES]
    offsets = rng.uniform(size=len(specs))
    count = 0
    while True:
        block = []
        for i in rng.permutation(len(specs)):
            family, n, decade = specs[i]
            norm = 10.0 ** (decade + (offsets[i] + count * GOLDEN) % 1.0)
            a = _scaled(_family(rng, family, n), norm)
            block.append(_expm_op(fetexpm, f"n{n}", a, 8,
                                  expected_defect=norm >= KNOWN_DEFECT_NORM,
                                  keep_digits=norm < DIGITS_NORM))
        count += 1
        yield block


def _write_matrix(path, a):
    rows = [" ".join(f"({float(z.real)!r},{float(z.imag)!r})" for z in row) for row in a]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{a.shape[0]}\n" + "\n".join(rows) + "\n")


def _cli_op(fetexpm, kind, argv, out_path, check, repeated=False, ref_seconds=0.0) -> Op:
    def call():
        return fetexpm.cli.main(argv + ["--output", out_path])

    def collect(code):
        if code != 0:
            return f"exit {code}".encode()
        with open(out_path, "rb") as handle:
            text = handle.read()
        os.remove(out_path)  # a later op that writes nothing must not find this
        return text

    def gate(out):
        if out.startswith(b"exit "):
            return Verdict(False, [], out.decode())
        return check(out.decode())

    return Op(kind, call, collect, gate, repeated=repeated, ref_seconds=ref_seconds)


def studies_blocks(fetexpm, rng, workdir, smoke=False):
    """Blocks of five CLI invocations: three table1 studies and two sweeps.

    The table1 inputs are the built-in matrices and repeat in every block;
    the sweep matrices are fresh random matrices with the shapes and
    1-norms of m3 and m4, written to matrix files.
    """
    lo, hi = (9, 11) if smoke else SWEEP_RANGE
    out = os.path.join(workdir, "out.csv")
    count = 0
    while True:
        block = [
            _cli_op(fetexpm, f"table1_{which}", ["table1", which], out,
                    lambda text, which=which: check_table1(which, text), repeated=True)
            for which in TABLE1_ROWS
        ]
        for kind, a, vary in (
            ("sweep_elements", _scaled(rng.standard_normal((5, 5)), M3_NORM), "elements"),
            ("sweep_basis", _scaled(_complex_gaussian(rng, 3), M4_NORM), "basis"),
        ):
            path = os.path.join(workdir, f"{kind}_{count}.txt")
            _write_matrix(path, a)
            ref, ref_seconds = _reference(a)
            argv = ["sweep", path, "--vary", vary, "--range", f"{lo}:{hi}"]
            block.append(_cli_op(
                fetexpm, kind, argv, out,
                lambda text, ref=ref, vary=vary: check_sweep(text, ref, vary, lo, hi),
                ref_seconds=ref_seconds,
            ))
        count += 1
        yield block


# workload name -> generator of its blocks
WORKLOADS = {
    "expm_large": expm_large_blocks,
    "expm_small": expm_small_blocks,
    "studies": studies_blocks,
}

# Set-up: process start, ``import fetexpm`` and one warm-up op of the
# workload's cheapest kind.  argv[1] is the source directory, argv[2] a
# temporary file for CLI output.
SETUP_SOURCE = {
    "expm_large": "fetexpm.expm(np.full((32, 32), 1.0 / 32.0), num_elements=8, num_basis=8)",
    "expm_small": "fetexpm.expm(np.full((2, 2), 0.5))",
    "studies": "sys.exit(fetexpm.cli.main(['table1', 'm2', '--output', sys.argv[2]]))",
}
