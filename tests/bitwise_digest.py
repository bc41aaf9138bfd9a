"""One sha256 over seeded results of every solve path, to compare two trees bit for bit.

Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python tests/bitwise_digest.py

It imports ``fetexpm`` from this checkout's ``src`` and prints one line,
``sha256 <digest> over <count> results``.  Run it in two checkouts; an equal
digest means every result below is the same array bit for bit.  The cases
cover the dense solve (n <= 2) on single rows and stacked marches, the pencil
solve on real forms (3 <= n < 40) for single rows, marches of one basis count
and of several, and sweeps that the ``SPARE_BYTES`` bound splits into several
marches (the n = 16 basis sweep, the n = 24 element sweep at m = 8), complex
operands (n >= 40), and the ``table1`` rows.  pytest does not collect this
file.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from fetexpm import expm  # noqa: E402
from fetexpm.propagator import expm_each  # noqa: E402
from fetexpm.studies import table1  # noqa: E402
from random_matrices import random_unit_disk  # noqa: E402


def inputs(n):
    """A seeded complex matrix and a seeded real one of size n, 1-norm about 3."""
    rng = np.random.default_rng(3000 + n)
    complex_input = random_unit_disk(rng, n) * (3.0 / n)
    real_input = rng.uniform(-1.0, 1.0, (n, n)) * (3.0 / n)
    return complex_input, real_input


def cases():
    """``(label, array)`` pairs, in a fixed order."""
    # single rows through expm, on both solves and both operand forms
    for n in (1, 2, 3, 4, 5, 8, 16, 24, 32, 39, 40, 64):
        counts = [(1, 1), (3, 2), (8, 8)] if n >= 32 else [
            (e, m) for e in (1, 3, 8) for m in (1, 2, 5, 8, 16)]
        for kind, a in zip(("complex", "real"), inputs(n)):
            for e, m in counts:
                yield f"expm n={n} {kind} E={e} m={m}", expm(a, e, m).result
    # marches: sweeps over elements and over basis counts, and a mixed list
    # whose rows differ in both counts, in no order.  SPARE_BYTES splits the
    # n = 16 basis sweep and the n = 24 element sweep at m = 8 into several marches
    mixed = [(3, 8), (8, 5), (1, 16), (3, 5), (8, 8), (5, 2), (3, 8), (1, 1), (8, 12), (5, 16)]
    for n in (1, 2, 3, 5, 16, 24, 40):
        a = inputs(n)[0]
        sweeps = {"elements m=2": [(e, 2) for e in range(5, 41)],
                  "elements m=8": [(e, 8) for e in range(5, 41)],
                  "basis E=8": [(8, m) for m in range(1, 41 if n <= 16 else 13)],
                  "mixed": mixed}
        for name, rows in sweeps.items():
            for (e, m), result in zip(rows, expm_each(a, rows)):
                yield f"expm_each n={n} {name} E={e} m={m}", result
    for which in ("unit2", "m1", "m2"):
        yield f"table1 {which}", np.array([-1 if m is None else m for _, m in table1(which)])


def main():
    digest = hashlib.sha256()
    count = 0
    for label, array in cases():
        array = np.ascontiguousarray(array)
        digest.update(f"{label} {array.dtype} {array.shape}\n".encode())
        digest.update(array.tobytes())
        count += 1
    print(f"sha256 {digest.hexdigest()} over {count} results")


if __name__ == "__main__":
    main()
