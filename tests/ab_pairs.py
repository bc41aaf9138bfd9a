"""Paired timings of two checkouts of fetexpm, each side in its own process.

Run from anywhere, with the roots of two checkouts and a list of cases:

    python tests/ab_pairs.py PARENT CHANGE elements:16:8 basis:16:8

A case is one of

* ``elements:N:M``, ``expm_each`` over E = 5..40 at basis count M;
* ``basis:N:E``, ``expm_each`` over m = 5..40 at E elements;
* ``expm:N:E:M``, one ``expm`` call;

each on a seeded complex Gaussian N x N matrix of 1-norm 1.

Each round starts three processes with one BLAS thread each: the parent, the
change and the parent again, or the same three in reverse order in every
other round, so that neither side always goes first.  A process imports
``fetexpm`` from its checkout's ``src`` and times every case as the best of
``--repeat`` calls after one warm-up call.  Two identical copies of the
package timed in one process can read several per cent apart on the same
case, depending on what else that process ran, so each side gets a process
of its own.  The second parent process is an A/A control: its ratio to the
first shows the spread of the method itself.

It prints one line per case: each side's median time, the median of
change/parent over the rounds with its quartiles, and the same for the A/A
pair.  ``--json`` also writes every timing and every ratio.  It checks no
result and gates on no timing.  pytest does not collect this file.
"""

import argparse
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# a sweep's first and last count, as in the CLI's sweep study
SWEEP = range(5, 41)
KINDS = {"elements": 2, "basis": 2, "expm": 3}


def parse_case(case):
    """``(kind, n, counts)`` of a case string, or ``argparse.ArgumentTypeError``."""
    kind, *fields = case.split(":")
    if kind not in KINDS or len(fields) != KINDS[kind]:
        raise argparse.ArgumentTypeError(
            f"{case!r}: expected elements:N:M, basis:N:E or expm:N:E:M")
    try:
        numbers = [int(field) for field in fields]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{case!r}: sizes and counts are integers") from None
    if min(numbers) < 1:
        raise argparse.ArgumentTypeError(f"{case!r}: sizes and counts are at least 1")
    return kind, numbers[0], numbers[1:]


def checked_case(text):
    """A case string that ``parse_case`` accepts, as given."""
    parse_case(text)
    return text


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return value


def time_cases(root, repeat, cases):
    """Best-of-``repeat`` seconds per case, ``fetexpm`` imported from ``root``'s ``src``."""
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import fetexpm
    from fetexpm.propagator import expm, expm_each

    if Path(fetexpm.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported fetexpm from {fetexpm.__file__}, not from {src}")
    best = []
    for kind, n, counts in map(parse_case, cases):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= np.abs(a).sum(axis=0).max()
        if kind == "elements":
            call = functools.partial(expm_each, a, [(count, counts[0]) for count in SWEEP])
        elif kind == "basis":
            call = functools.partial(expm_each, a, [(counts[0], m) for m in SWEEP])
        else:
            call = functools.partial(expm, a, *counts)
        call()
        timings = []
        for _ in range(repeat):
            start = time.perf_counter()
            call()
            timings.append(time.perf_counter() - start)
        best.append(min(timings))
    return best


def run_side(root, repeat, cases):
    """``time_cases`` in a new process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--time", str(root), str(repeat), *cases],
                          env=env, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"timing {root} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def summary(values):
    """Median and quartiles of a list of numbers, rounded to four places."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the checkout timed twice, as reference and as A/A control")
    parser.add_argument("change", help="root of the checkout compared with it")
    parser.add_argument("cases", nargs="+", type=checked_case, help="elements:N:M, basis:N:E or expm:N:E:M")
    # 12 rounds of best-of-9 kept every A/A median within 2% on a shared
    # 2-core VM where 8 rounds of best-of-5 let A/A quartiles reach 0.75-1.16
    # (BENCH_34.json ab_grid)
    parser.add_argument("--rounds", type=positive, default=12, help="rounds of three processes (default 12)")
    parser.add_argument("--repeat", type=positive, default=9,
                        help="timed calls per case, the best kept (default 9)")
    parser.add_argument("--json", help="file to write every timing and ratio to")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change, "parent_again": args.parent}
    seconds = {side: [] for side in sides}
    for round_ in range(args.rounds):
        order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
        for side in order:
            seconds[side].append(run_side(sides[side], args.repeat, args.cases))
    report = {"rounds": args.rounds, "repeat": args.repeat, "parent": args.parent,
              "change": args.change, "cases": {}}
    for index, case in enumerate(args.cases):
        ms = {side: [1e3 * timings[index] for timings in seconds[side]] for side in sides}
        ratios = np.array(ms["change"]) / ms["parent"]
        control = np.array(ms["parent_again"]) / ms["parent"]
        entry = {f"{side}_ms": [round(value, 4) for value in ms[side]] for side in sides}
        entry.update(change_over_parent=[round(value, 4) for value in ratios], ratio=summary(ratios),
                     aa_ratios=[round(value, 4) for value in control], aa=summary(control))
        report["cases"][case] = entry
        ratio, aa = entry["ratio"], entry["aa"]
        print(f"{case}: parent {np.median(ms['parent']):.3f} ms, change {np.median(ms['change']):.3f} ms,"
              f" change/parent {ratio['median']:.3f} ({ratio['q1']:.3f}-{ratio['q3']:.3f}),"
              f" A/A {aa['median']:.3f} ({aa['q1']:.3f}-{aa['q3']:.3f})")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--time"]:
        root, repeat, *cases = sys.argv[2:]
        print(json.dumps(time_cases(root, int(repeat), cases)))
    else:
        main()
