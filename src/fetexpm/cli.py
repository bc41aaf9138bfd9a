"""Command-line front end.

Subcommands: ``expm`` (exponentiate one matrix), ``table1`` (minimum-basis
study against an exact reference), ``sweep`` (vary elements or basis count
and track one entry).  A matrix argument is either a path to a matrix file
or one of the built-in names (m1, m2, m3, m4, unit2).

Exit codes: 0 success, 1 usage error, 2 matrix parse error, 3 numerical
failure (a singular block system or an overflow).
"""

import argparse
import sys

import numpy as np

from .matio import MatrixParseError, format_matrix, load_matrix
from .oracles import NAMED_MATRICES
from .propagator import expm
from .studies import TABLE1_STEPS, sweep, table1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # matrix parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_pair(text: str, sep: str, form: str):
    """Two integers joined by ``sep``; ``form`` spells the expected text in the error."""
    try:
        first, second = map(int, text.split(sep))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return first, second


def _entry_pair(text: str):
    row, col = _int_pair(text, ",", "I,J (1-based)")
    if row < 1 or col < 1:
        raise argparse.ArgumentTypeError("entry indices are 1-based and positive")
    return row, col


def _range_pair(text: str):
    lo, hi = _int_pair(text, ":", "LO:HI")
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"need 1 <= LO <= HI, got {text!r}")
    return lo, hi


def _load_operand(spec: str):
    """A matrix argument is a built-in name or a file path."""
    builtin = NAMED_MATRICES.get(spec.lower())
    if builtin is not None:
        return builtin()
    return load_matrix(spec)


def _given(args, *names):
    """``{name: value}`` for each of ``names`` whose option was given."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _emit(text: str, output):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _run_expm(args) -> int:
    a = _load_operand(args.matrix)
    report = expm(a, **_given(args, "num_elements", "num_basis"))
    header = f"# elements={report.num_elements} basis={report.num_basis}\n"
    _emit(header + format_matrix(report.result), args.output)
    return EXIT_OK


def _run_table1(args) -> int:
    lines = ["time_steps,min_basis_functions"]
    for steps, min_basis in table1(args.which, **_given(args, "tolerance", "max_basis")):
        lines.append(f"{steps},{'-' if min_basis is None else min_basis}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _run_sweep(args) -> int:
    a = _load_operand(args.matrix)
    n = a.shape[0]
    row, col = args.entry if args.entry is not None else (n, n)
    if row > n or col > n:
        raise ValueError(f"entry {row},{col} out of range for a {n}x{n} matrix")
    given = _given(args, "vary", "fixed")
    if hasattr(args, "range"):
        given["lo"], given["hi"] = args.range
    rows = sweep(a, (row - 1, col - 1), **given)
    lines = ["time_steps,basis_functions,entry_re,entry_im,max_abs_error"]
    for item in rows:
        lines.append(
            f"{item.num_elements},{item.num_basis},"
            f"{item.selected_entry.real:.17g},{item.selected_entry.imag:.17g},"
            f"{item.max_abs_error:.17g}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fetexpm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_expm = sub.add_parser("expm", help="exponentiate a matrix")
    p_expm.add_argument("matrix", help="matrix file or built-in name")
    # dest is the library parameter an option sets; argparse.SUPPRESS sets none
    # when the option is left out, so the library's default applies
    p_expm.add_argument("-E", "--elements", dest="num_elements", metavar="ELEMENTS",
                        type=_positive_int, default=argparse.SUPPRESS)
    p_expm.add_argument("-m", "--basis", dest="num_basis", metavar="BASIS",
                        type=_positive_int, default=argparse.SUPPRESS)
    p_expm.add_argument("--output", help="write result here instead of stdout")
    p_expm.set_defaults(func=_run_expm)

    p_table = sub.add_parser("table1", help="minimum-basis study (CSV)")
    p_table.add_argument("which", choices=sorted(TABLE1_STEPS))
    p_table.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    p_table.add_argument("--max-basis", type=_positive_int, default=argparse.SUPPRESS)
    p_table.add_argument("--output", help="write CSV here instead of stdout")
    p_table.set_defaults(func=_run_table1)

    p_sweep = sub.add_parser("sweep", help="vary elements or basis count (CSV)")
    p_sweep.add_argument("matrix", help="matrix file or built-in name")
    p_sweep.add_argument("--entry", type=_entry_pair, default=None,
                         help="1-based I,J of the tracked entry (default: bottom-right)")
    p_sweep.add_argument("--vary", choices=("elements", "basis"), default=argparse.SUPPRESS)
    p_sweep.add_argument("--fixed", type=_positive_int, default=argparse.SUPPRESS,
                         help="value of the parameter held constant")
    p_sweep.add_argument("--range", type=_range_pair, default=argparse.SUPPRESS,
                         help="LO:HI inclusive range for the varied parameter")
    p_sweep.add_argument("--output", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=_run_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        # a file that cannot be read carries no position: nothing was parsed
        kind = "" if exc.line is None else "parse error: "
        print(f"fetexpm: {kind}{exc}", file=sys.stderr)
        return EXIT_PARSE
    except (np.linalg.LinAlgError, OverflowError) as exc:
        print(f"fetexpm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"fetexpm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
