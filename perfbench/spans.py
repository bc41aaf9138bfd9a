"""Span recording around fetexpm's public functions, from outside the package.

A ``Tracer`` replaces each traced function at every ``fetexpm`` module
attribute that binds it (``dense.lu_solve`` is also ``propagator.lu_solve``
and ``fetexpm.lu_solve``), so calls between modules are seen too.  Spans
are kept in memory as (name, start, end, parent, op, raised) and reduced
to per-layer numbers at the end.  A traced name missing from the package
is reported as absent.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "fetexpm"
SPANS = (
    "cli.main",
    "studies.table1",
    "studies.sweep",
    "studies.min_basis_for_tolerance",
    "oracles.expm_taylor_squaring",
    "matio.load_matrix",
    "propagator.expm",
    "propagator.build_factorization",
    "propagator.assemble_system",
    "propagator.assemble_rhs",
    "basis.build_tables",
    "dense.lu_factor",
    "dense.lu_solve",
    "dense.max_abs_diff",
)
# counted, not timed: called too often for a span to be cheap
COUNTED = ("dense.as_complex_matrix",)


def _lu_factor_flop(args, kwargs):
    n = np.shape(args[0] if args else kwargs["a"])[0]
    return 8.0 * n**3 / 3.0


def _lu_solve_flop(args, kwargs):
    rhs = np.asarray(args[1] if len(args) > 1 else kwargs["rhs"])
    n = rhs.shape[0]
    return 8.0 * n * n * (rhs.size // max(n, 1))


# complex flops computed from argument sizes, N = n*m: 8N^3/3 per factorization,
# 8N^2 per solved column
FLOP = {"dense.lu_factor": _lu_factor_flop, "dense.lu_solve": _lu_solve_flop}

PER_SPAN = (("calls", "count"), ("s", "s"), ("self_s", "s"), ("errors", "count"))


def per_layer_units():
    """Every per-layer metric name this module reports, with its unit."""
    units = {f"{span}.{key}": unit for span in SPANS for key, unit in PER_SPAN}
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update({f"{name}.flop": "flop" for name in FLOP})
    units["studies.search_yield"] = "ratio"
    return units


class Tracer:
    """Wraps fetexpm's layer functions and records spans while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.flop = defaultdict(float)
        self.absent = []
        self.op = None
        self._stack = []
        self._restore = []

    @staticmethod
    def _modules():
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        self.absent = []
        for qualname in SPANS + COUNTED:
            mod_name, attr = qualname.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(qualname)
                continue
            wrapper = (self._counter if qualname in COUNTED else self._span)(qualname, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack, flop = self.spans, self._stack, FLOP.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if flop is not None:
                self.flop[name] += flop(args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(index)
            span = [name, 0.0, 0.0, parent, self.op, False]
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def metrics(self):
        """Per-span calls, inclusive and self seconds, errors, plus the derived numbers."""
        total = {name: 0.0 for name in SPANS}
        child = {name: 0.0 for name in SPANS}
        calls = {name: 0 for name in SPANS}
        errors = {name: 0 for name in SPANS}
        for name, start, end, parent, _, raised in self.spans:
            total[name] += end - start
            calls[name] += 1
            errors[name] += raised
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = total[name] - child[name]
            out[f"{name}.errors"] = errors[name]
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        for name in FLOP:
            out[f"{name}.flop"] = self.flop[name]
        out["studies.search_yield"] = self._search_yield()
        return out

    def _search_yield(self):
        """Minimum-basis searches divided by the expm calls made inside them."""
        searches = "studies.min_basis_for_tolerance"
        inside = 0
        for name, _, _, parent, _, _ in self.spans:
            if name != "propagator.expm":
                continue
            while parent >= 0 and self.spans[parent][0] != searches:
                parent = self.spans[parent][3]
            inside += parent >= 0
        return sum(1 for span in self.spans if span[0] == searches) / inside if inside else 0.0

    def dump(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
