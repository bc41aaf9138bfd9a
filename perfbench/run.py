"""Benchmark of fetexpm: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload expm_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --smoke --trace 1

One client calls the public API in this process, closed loop: each op
starts when the previous one returns.  BLAS runs on one thread.  With
``--trace 0`` the last line of standard output is one JSON object holding
every end-to-end metric; with ``--trace 1`` it holds every per-layer metric
from a second, traced pass over the first blocks of the same inputs.
Lines before it are a readable report and the environment.
"""

import os

PINNED_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy loads it, so they are set before any import of numpy
for _var in PINNED_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, per_layer_units  # noqa: E402
from speed import ALPHA, SpeedProbe, normalise, sensitivity  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# workload -> blocks re-run under the tracer: a fixed amount of work, so
# per-layer counts repeat exactly for a seed and compare across versions
TRACED_BLOCKS = {"expm_large": 1, "expm_small": 4, "studies": 2}
SETUP_REPS = 11
# below this many ops a p90 has fewer than ten samples above it
P90_MIN_OPS = 100

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "ratio",
    "digits_min": "digits",
    "digits_p50": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
EXTRA_LAYER_UNITS = {
    "trace.ops": "count",
    "trace.s": "s",
    "trace.overhead_frac": "ratio",
    "ref.scipy_expm.s": "s",
    "inputs.repeated_frac": "ratio",
}


def blas_threads():
    """Thread count of every OpenBLAS or MKL library loaded into this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if line.rstrip().endswith(".so") or ".so." in line}
    for path in sorted(paths):
        base = os.path.basename(path).lower()
        if "openblas" in base:
            symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")
        elif "mkl_rt" in base:
            symbols = ("MKL_Get_Max_Threads",)
        else:
            continue
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(seed):
    """Versions, BLAS and its threads, thread variables, cores, CPU model and the seed."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_vars": {var: os.environ.get(var) for var in PINNED_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def measure_setup(workload, workdir, reps, probe):
    """Normalised seconds from process start through ``import fetexpm`` and one warm-up op."""
    source = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
              "import fetexpm, fetexpm.cli; " + workloads.SETUP_SOURCE[workload])
    times = []
    for _ in range(reps):
        # samples only before and after: during the child's run they would compete with it
        before = probe.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", source, str(SRC), os.path.join(workdir, "setup.csv")],
                       check=True, timeout=120, cwd=ROOT)
        wall = time.perf_counter() - start
        rate = (1.0 / before + 1.0 / probe.sample()) / 2.0
        # start-up is interpreter work like the kernel's, so alpha = 1
        times.append(normalise(wall, rate, 1.0))
    return times


class Run:
    """What one closed-loop pass over the blocks measured."""

    def __init__(self):
        self.samples = []  # (kind, wall seconds, kernel rate) per op
        self.block_sizes = []
        self.attempted = 0
        self.failed = 0
        self.defect_misses = 0  # known-defect inputs that missed EXPM_TOL; not failed ops
        self.repeated = 0
        self.failures = []  # detail of each failed op
        self.digits = []
        self.kept = []  # (block, outputs) of the first blocks, for the traced pass

    def latencies(self, alpha):
        """Normalised seconds per op."""
        return [normalise(wall, rate, alpha) for _, wall, rate in self.samples]

    def block_seconds(self, alpha):
        latencies = iter(self.latencies(alpha))
        return [sum(next(latencies) for _ in range(size)) for size in self.block_sizes]


def run_ops(block, run, probe, tracer=None, op_base=0):
    """Run one block's ops in order; returns ((kind, wall, rate) per op, outputs)."""
    samples, outputs = [], []
    probe.restart()
    for index, op in enumerate(block):
        if tracer is not None:
            tracer.op = op_base + index
        probe.start()
        try:
            value, error = op.call(), None
        except Exception as exc:  # an op that raises is a failed op, not the end of the run
            value, error = None, exc
        wall, rate = probe.stop()
        samples.append((op.kind, wall, rate))
        if error is None:
            output = op.collect(value)
            verdict = op.check(output)
        else:
            output = f"raised {error!r}".encode()
            verdict = workloads.Verdict(False, [], output.decode())
        outputs.append(output)
        if run is None:
            continue
        run.attempted += 1
        run.repeated += op.repeated
        if verdict.miss and op.expected_defect:
            run.defect_misses += 1
        elif not verdict.ok:
            run.failed += 1
            run.failures.append(f"{op.kind}: {verdict.detail}")
        run.digits.extend(verdict.digits)
    return samples, outputs


def measure(blocks, seconds, keep_blocks, probe):
    """Run whole blocks while the next one, as long as the last, ends within ``seconds``.

    At least ``keep_blocks`` blocks run.
    """
    run = Run()
    start = time.perf_counter()
    for index, block in enumerate(blocks):
        block_start = time.perf_counter()
        samples, outputs = run_ops(block, run, probe)
        run.samples += samples
        run.block_sizes.append(len(block))
        if index < keep_blocks:
            run.kept.append((block, outputs))
        now = time.perf_counter()
        if index + 1 >= keep_blocks and now + (now - block_start) - start > seconds:
            return run


def end_to_end(run, alpha, setup_times):
    latencies = run.latencies(alpha)
    return {
        "ops_per_s": run.block_sizes[0] / statistics.median(run.block_seconds(alpha)),
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "ok_frac": 1.0 - (run.failed + run.defect_misses) / run.attempted,
        "digits_min": min(run.digits, default=0.0),
        "digits_p50": statistics.median(run.digits) if run.digits else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(run, alpha, workload, seed, probe):
    """Re-run the kept blocks untraced, then traced; returns (per-layer metrics, mismatches, absent).

    Both re-runs start from the same warm state, so their difference is the
    tracing overhead; all three runs of a block must give bitwise equal output.
    """
    tracer = Tracer()
    untraced = traced = ref = 0.0
    ops = 0
    mismatches = []
    for block, outputs in run.kept:
        plain_samples, plain = run_ops(block, None, probe)
        with tracer:
            traced_samples, again = run_ops(block, None, probe, tracer, op_base=ops)
        ops += len(block)
        untraced += sum(normalise(w, r, alpha) for _, w, r in plain_samples)
        traced += sum(normalise(w, r, alpha) for _, w, r in traced_samples)
        ref += sum(op.ref_seconds for op in block)
        mismatches += [op.kind for op, a, b, c in zip(block, outputs, plain, again)
                       if not a == b == c]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    metrics = tracer.metrics()
    metrics.update({
        "trace.ops": ops,
        "trace.s": traced,
        "trace.overhead_frac": traced / untraced - 1.0,
        "ref.scipy_expm.s": ref,
        "inputs.repeated_frac": run.repeated / run.attempted,
    })
    return metrics, mismatches, tracer.absent


def declared_units():
    """End-to-end and per-layer units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def report_lines(workload, metrics, units, run):
    lines = []
    for name, value in metrics.items():
        note = ""
        if name.startswith("latency_"):
            note = f"  (ops={run.attempted})"
            if name == "latency_p90_ms" and run.attempted < P90_MIN_OPS:
                note = f"  (ops={run.attempted}, fewer than {P90_MIN_OPS}: unresolved)"
        lines.append(f"{workload:11s} {name:34s} {value:.6g} {units[name]}{note}")
    return lines


def share_lines(workload, metrics):
    """Each span's self time as a share of all time spent inside traced spans."""
    selfs = {name[:-len(".self_s")]: value for name, value in metrics.items()
             if name.endswith(".self_s") and value > 0}
    total = sum(selfs.values())
    return [f"{workload:11s} share of traced time  {name:34s} self {value / total:6.1%}  "
            f"inclusive {metrics[name + '.s'] / total:6.1%}"
            for name, value in sorted(selfs.items(), key=lambda item: -item[1])]


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import fetexpm
    import fetexpm.cli  # noqa: F401  (binds fetexpm.cli for the studies ops)

    if Path(fetexpm.__file__).resolve().parent != SRC / "fetexpm":
        sys.exit(f"imported fetexpm from {fetexpm.__file__}, not from {SRC}")
    env = environment(args.seed)
    if not env["blas_threads"] or set(env["blas_threads"].values()) != {1}:
        sys.exit(f"cannot confirm that BLAS runs on one thread: {env['blas_threads']}")
    print("env " + json.dumps(env, sort_keys=True))

    rng = np.random.default_rng([args.seed, list(workloads.WORKLOADS).index(args.workload)])
    keep = 1 if args.smoke else TRACED_BLOCKS[args.workload]
    with SpeedProbe() as probe, tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        make = workloads.WORKLOADS[args.workload]
        if args.workload == "studies":
            blocks = make(fetexpm, rng, workdir, smoke=args.smoke)
        else:
            blocks = make(fetexpm, rng, smoke=args.smoke)
        warm = next(blocks)  # untimed: lazy imports, allocator and caches settle
        run_ops(warm[:1], None, probe)
        run = measure(blocks, 0.0 if args.smoke else args.seconds, keep, probe)
        alpha = ALPHA[args.workload]
        correct = not run.failures
        for detail in run.failures[:10]:
            print(f"{args.workload:11s} FAILED {detail}")
        if args.trace:
            metrics, mismatches, absent = traced_pass(run, alpha, args.workload, args.seed, probe)
            units = {**per_layer_units(), **EXTRA_LAYER_UNITS}
            if mismatches:
                correct = False
                print(f"{args.workload:11s} traced output differs from untraced: {mismatches}")
            if absent:
                print(f"{args.workload:11s} absent from fetexpm: {', '.join(absent)}")
            for line in share_lines(args.workload, metrics):
                print(line)
        else:
            setup_times = measure_setup(args.workload, workdir, 1 if args.smoke else SETUP_REPS, probe)
            metrics, units = end_to_end(run, alpha, setup_times), END_TO_END_UNITS
    print(f"{args.workload:11s} attempted={run.attempted} failed={run.failed} "
          f"failed_frac={run.failed / run.attempted:.4g} "
          f"known_defect_misses={run.defect_misses} "
          f"miss_frac={run.defect_misses / run.attempted:.4g} "
          f"repeated_frac={run.repeated / run.attempted:.3g} correct={correct}")
    walls = [wall for _, wall, _ in run.samples]
    kernel_ms = [1e3 / rate for _, _, rate in run.samples]
    print(f"{args.workload:11s} wall clock, not normalised: "
          f"latency_p50_ms={np.percentile(walls, 50) * 1e3:.6g} "
          f"latency_p90_ms={np.percentile(walls, 90) * 1e3:.6g} "
          f"ops_per_s={len(walls) / sum(walls):.6g}; speed probe: alpha={alpha:g} "
          f"(this run alone fits {sensitivity(run.samples):.3f}) "
          f"kernel_ms p10={np.percentile(kernel_ms, 10):.4g} p50={np.percentile(kernel_ms, 50):.4g} "
          f"p90={np.percentile(kernel_ms, 90):.4g}")
    for line in report_lines(args.workload, metrics, units, run):
        print(line)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.smoke:
        want = declared_units()[1 if args.trace else 0]
        got = {name: units[name] for name in metrics}
        if got != want:
            missing = {k: v for k, v in want.items() if got.get(k) != v}
            sys.exit(f"smoke: metrics do not match BENCHMARK.json: {missing}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, so each reports its own peak memory."""
    results, status = {}, 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        status |= not results[workload]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, one block; check metric names and units")
    args = parser.parse_args(argv)
    if not (SRC / "fetexpm" / "__init__.py").is_file():
        sys.exit(f"no fetexpm sources under {SRC}; run from the root of a fetexpm checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
