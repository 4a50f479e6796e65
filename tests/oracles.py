"""Reference implementations that the package's kernels are checked against."""

import numpy as np

from myerson_airnet.errors import InputError
from myerson_airnet.network import (MonotoneNetParams, _check_bidder, _transformed,
                                    transform_inverse)


def pair_mse(a, b) -> float:
    """Mean squared pixel difference between two equally sized images."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError(f"image dimensions differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.size == 0:
        raise InputError("images must be non-empty matrices")
    return float(np.mean((a - b) ** 2))


def transform_profile(params: MonotoneNetParams, bids) -> np.ndarray:
    """Apply every bidder's transform to the matching entry of ``bids``."""
    b = np.asarray(bids, dtype=float)
    if b.ndim != 1 or b.size != params.n_bidders:
        raise InputError(f"expected {params.n_bidders} bids, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise InputError("bids must be finite")
    return _transformed(params.theta, params.beta, b[:, None, None])


def payment_soft(params: MonotoneNetParams, transformed_bids, bidder: int) -> float:
    """Conditional payment: inverse transform of the rectified top rival bid."""
    tb = np.asarray(transformed_bids, dtype=float)
    if tb.ndim != 1 or tb.size != params.n_bidders:
        raise InputError(f"expected {params.n_bidders} transformed bids, got shape {tb.shape}")
    if tb.size < 2:
        raise InputError("payments need at least two bidders")
    _check_bidder(params, bidder)
    rival = float(np.max(np.delete(tb, bidder)))
    return transform_inverse(params, bidder, max(rival, 0.0))
