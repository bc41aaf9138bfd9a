"""Seeded random test matrices shared by the test modules."""


def random_unit_disk(rng, n):
    """n x n matrix with every entry drawn uniformly from the complex unit disk."""
    re = rng.uniform(-1.0, 1.0, (n, n))
    im = rng.uniform(-1.0, 1.0, (n, n))
    bad = re * re + im * im > 1.0
    while bad.any():
        re[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        im[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        bad = re * re + im * im > 1.0
    return re + 1j * im
