"""Reference implementations that the package's kernels are checked against."""

import numpy as np

from myerson_airnet.errors import InputError


def pair_mse(a, b) -> float:
    """Mean squared pixel difference between two equally sized images."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError(f"image dimensions differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.size == 0:
        raise InputError("images must be non-empty matrices")
    return float(np.mean((a - b) ** 2))
