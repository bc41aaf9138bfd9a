"""Run-to-run spread of the benchmark: one run per seed, quartiles per metric.

    python3 perfbench/spread.py --workload expm_small --seeds 1-10 --seconds 30

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the interquartile distance as a share of the median, next to
the bound BENCHMARK.json fixes for it.  Each run's raw wall-clock line,
with the speed probe's diagnostic fit of alpha, is printed as it ends.
The last line is the raw results.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout + proc.stderr)
            return f"seed {seed}: exit {proc.returncode}"
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            return f"seed {seed}: incorrect result"
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}")
        for line in lines:
            if "wall clock, not normalised" in line:
                print(f"seed {seed}: {line.strip()}")
        sys.stdout.flush()

    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        print(f"{name:40s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
              f"  bound {bound:g}  spread/bound {spread / bound:.2f}")
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
