"""The distance between two matrices that the tests measure errors by."""

import numpy as np


def max_abs_diff(a, b) -> float:
    """Largest entrywise modulus of ``a - b``.

    The shapes must be equal, not merely broadcastable, so that a broadcast
    cannot hide a shape mismatch behind a small distance.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))
