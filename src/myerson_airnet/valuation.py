"""Distance and image-redundancy valuation model.

A device's willingness to sell is scored from how far the collector
must fly (Euclidean distance) and how different the device's current
image pile is from the pile collected in the previous round (mean
squared error across all cross pairs).  Raw scores are min-max
normalized onto the support of the market's valuation distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auction import ValuationDistribution, ValuationProfile
from .errors import DegenerateProfileError, InputError


@dataclass(frozen=True)
class Position:
    """Planar position in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise InputError("coordinates must be finite")


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class ImagePile:
    """Ordered stack of same-sized grayscale images with pixels in [0, 1]."""

    images: np.ndarray

    def __post_init__(self):
        images = np.array(self.images, dtype=float)
        if images.ndim != 3 or images.shape[0] < 1:
            raise InputError("a pile is a non-empty (count, rows, cols) stack")
        if images.shape[1] < 1 or images.shape[2] < 1:
            raise InputError("images must have at least one pixel")
        if not np.all(np.isfinite(images)) or images.min() < 0.0 or images.max() > 1.0:
            raise InputError("pixels must lie in [0, 1]")
        images.setflags(write=False)
        object.__setattr__(self, "images", images)

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def rows(self) -> int:
        return self.images.shape[1]

    @property
    def cols(self) -> int:
        return self.images.shape[2]


def pair_mse(a, b) -> float:
    """Mean squared pixel difference between two equally sized images."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InputError(f"image dimensions differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.size == 0:
        raise InputError("images must be non-empty matrices")
    return float(np.mean((a - b) ** 2))


def pile_similarity(current: ImagePile, previous: ImagePile, aggregate: str = "mean") -> float:
    """Aggregate pairwise MSE between every image of one pile and the other.

    ``mean`` averages all cross pairs; ``min`` scores a pile by its most
    redundant image pair instead.
    """
    if (current.rows, current.cols) != (previous.rows, previous.cols):
        raise InputError("piles must share image dimensions")
    diffs = current.images[:, None] - previous.images[None, :]
    per_pair = np.mean(diffs ** 2, axis=(2, 3))
    if aggregate == "mean":
        return float(per_pair.mean())
    if aggregate == "min":
        return float(per_pair.min())
    raise InputError(f"unknown aggregate {aggregate!r} (use 'mean' or 'min')")


def valuation_score(similarity: float, dist_meters: float, rule: str = "product") -> float:
    """Raw score of one device from its pile similarity and collection distance.

    ``product`` is ``s * d``, the redundancy gap times the distance;
    ``proximity`` is ``s / (1 + d)``, which rewards novelty near the
    collector instead of far from it.
    """
    if similarity < 0.0 or not math.isfinite(similarity):
        raise InputError("similarity must be a finite non-negative number")
    if dist_meters < 0.0 or not math.isfinite(dist_meters):
        raise InputError("distance must be a finite non-negative number")
    if rule == "product":
        return similarity * dist_meters
    if rule == "proximity":
        return similarity / (1.0 + dist_meters)
    raise InputError(f"unknown valuation rule {rule!r} (use 'product' or 'proximity')")


def normalize_profile(raw_values, dist: ValuationDistribution) -> ValuationProfile:
    """Affine min-max map of raw scores onto the distribution support.

    Order preserving; the smallest raw score lands on ``dist.lower`` and
    the largest on ``dist.upper``.  A zero-spread vector cannot be
    normalized and raises ``DegenerateProfileError`` so the caller can
    assign midpoint values instead.
    """
    raw = np.asarray(raw_values, dtype=float)
    if raw.ndim != 1 or raw.size < 2:
        raise InputError("need at least two raw valuations")
    if not np.all(np.isfinite(raw)):
        raise InputError("raw valuations must be finite")
    low = float(raw.min())
    span = float(raw.max()) - low
    if span == 0.0:
        raise DegenerateProfileError("all raw valuations are equal")
    scaled = dist.lower + (raw - low) * (dist.width / span)
    np.clip(scaled, dist.lower, dist.upper, out=scaled)
    return ValuationProfile(scaled, dist)
