"""Distance and image-redundancy valuation model.

A device's willingness to sell is scored from how far the collector
must fly (the Euclidean distance between ``(x, y)`` points) and how
different the device's current image pile is from the pile collected in
the previous round (mean squared error across all cross pairs).  Raw scores are min-max
normalized onto the support of the market's valuation distribution.

Similarity and scoring work on whole markets at once: piles are plain
arrays, a ``(D, P, R, C)`` stack of D piles is scored against one
``(Q, R, C)`` reference pile in a single call with every dot product
taken by ``np.einsum`` rather than BLAS, and scoring takes arrays or
scalars.  Similarity reads a stack through its terms, each image's
squared norm and each pile's pixel sums (:func:`pile_terms`); a caller
that keeps a stack's terms, as the simulator does, passes them in so a
call reads ``(D, K)`` sums instead of ``(D, P, K)`` pixels.  The mean
over all cross pairs comes from those sums, so no table of pairs is
built; the most redundant pair is found in Gram form.

Each public function checks its input and then runs a private kernel
that holds the only copy of its math: ``_similarity`` (given the
stack's and the reference's terms), ``_score`` and ``_normalized``.
The simulator's round calls the kernels directly, on a state that
checked what it holds and caches the reference's terms, so a round is
checked once and gives the public calls' bits.
"""

from __future__ import annotations

import math

import numpy as np

from .auction import ValuationDistribution, ValuationProfile
from .errors import DegenerateProfileError, InputError


def distance(a, b) -> float:
    """Euclidean distance in meters between the ``(x, y)`` points ``a`` and ``b``.

    ``np.hypot`` on scalars gives the bits it gives elementwise on arrays,
    so this matches the distances the simulator prices in one call.
    """
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def pile_terms(piles) -> tuple[np.ndarray, np.ndarray]:
    """Each image's squared norm ``(D, P)`` and each pile's pixel sums ``(D, K)``.

    ``piles`` is a ``(D, P, R, C)`` stack and ``K = R*C``.  The norms are
    ``np.einsum`` dot products and the sums add a pile's images in order,
    both on a row-major copy, so a pile's terms have the same bits
    whether it is taken alone or in a stack, on any layout.
    """
    stack = np.asarray(piles, dtype=float)
    if stack.ndim != 4:
        raise InputError("piles must come as a (D, P, R, C) stack")
    devices, images, rows, cols = stack.shape
    a = np.ascontiguousarray(stack.reshape(devices, images, rows * cols))
    return np.einsum("dpk,dpk->dp", a, a, optimize=False), a.sum(axis=1)


def pile_similarity(piles, reference, aggregate: str = "mean", terms=None) -> np.ndarray:
    """Aggregate pairwise MSE between every image of each pile and the reference.

    ``mean`` averages all cross pairs; ``min`` scores a pile by its most
    redundant image pair instead.  ``piles`` is a ``(D, P, R, C)`` stack of
    D piles and ``reference`` one ``(Q, R, C)`` pile; the result holds one
    score per pile.  ``terms`` are the stack's :func:`pile_terms`, the
    norms ``n_p = |a_p|^2`` and sums ``A = sum a_p``; they are computed
    here when not given, and a caller that passes them vouches that they
    are the stack's.  Over ``K = R*C`` pixels, with the reference's own
    norms ``m_q`` and sums ``B``, ``mean`` sums every pair at once as
    ``Q sum n_p - 2 A.B + P sum m_q``, added in that order, and divides
    ``max(sum, 0)`` by ``P*Q*K``, so it reads the stack only through
    its terms.  ``min`` takes each pair's MSE as
    ``max(-2 a.b + n_p + m_q, 0) / K``, added in that order.  Dot
    products are taken by ``np.einsum`` (not BLAS, whose bits can depend
    on its kernel and thread count) on row-major copies, so the bits
    depend neither on the input layout nor on whether a pile is scored
    alone or in a stack.  One image against itself gives exactly ``0.0``
    under either aggregate; under ``mean``, a pile of repeated identical
    images against itself need not.  The clamp keeps a rounding residue
    from going negative; scores lie within rounding of the direct
    per-pair mean, not on its bits.  Empty piles and empty images raise
    ``InputError``, as do terms of the wrong shape.
    """
    if aggregate not in ("mean", "min"):
        raise InputError(f"unknown aggregate {aggregate!r} (use 'mean' or 'min')")
    stack = np.asarray(piles, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if stack.ndim != 4 or reference.ndim != 3 or stack.shape[2:] != reference.shape[1:]:
        raise InputError("piles must share image dimensions")
    devices, images, rows, cols = stack.shape
    refs, pixels = reference.shape[0], rows * cols
    if images == 0 or refs == 0 or pixels == 0:
        raise InputError("piles and the reference must hold non-empty images")
    norms, sums = pile_terms(stack) if terms is None else terms
    if np.shape(norms) != (devices, images) or np.shape(sums) != (devices, pixels):
        raise InputError(f"terms of shapes {np.shape(norms)} and {np.shape(sums)} do not "
                         f"match {devices} piles of {images} images of {pixels} pixels")
    ref_norms, ref_sums = pile_terms(reference[None])
    return _similarity(stack, reference, (norms, sums), (ref_norms[0], ref_sums[0]), aggregate)


def _similarity(piles, reference, terms, reference_terms, aggregate: str) -> np.ndarray:
    """:func:`pile_similarity` on inputs already checked, given both sets of terms.

    ``piles`` is a ``(D, P, R, C)`` float array with its ``terms``;
    ``reference`` is one ``(Q, R, C)`` pile and ``reference_terms`` its own
    norms ``(Q,)`` and sums ``(K,)``, a row of :func:`pile_terms`.
    """
    norms, sums = terms
    ref_norms, ref_sums = reference_terms
    devices, images = norms.shape
    refs, pixels = ref_norms.size, ref_sums.size
    if aggregate == "mean":
        total = refs * norms.sum(axis=1)
        total -= 2.0 * np.einsum("dk,k->d", sums, ref_sums, optimize=False)
        total += images * ref_norms.sum()
        return np.maximum(total, 0.0) / (images * refs * pixels)
    a = np.ascontiguousarray(piles.reshape(devices, images, pixels))
    b = np.ascontiguousarray(reference.reshape(refs, pixels))
    per_pair = np.einsum("dpk,qk->dpq", a, b, optimize=False)
    per_pair *= -2.0
    per_pair += norms[:, :, None]
    per_pair += ref_norms
    np.maximum(per_pair, 0.0, out=per_pair)
    per_pair /= pixels
    return np.min(per_pair, axis=(1, 2))


def valuation_score(similarity, dist_meters, rule: str = "product"):
    """Raw score of each device from its pile similarity and collection distance.

    ``product`` is ``s * d``, the redundancy gap times the distance;
    ``proximity`` is ``s / (1 + d)``, which rewards novelty near the
    collector instead of far from it.  Arrays score elementwise; two
    scalars return a float.
    """
    s = np.asarray(similarity, dtype=float)
    d = np.asarray(dist_meters, dtype=float)
    if not np.all((s >= 0.0) & np.isfinite(s)):
        raise InputError("similarity must be a finite non-negative number")
    if not np.all((d >= 0.0) & np.isfinite(d)):
        raise InputError("distance must be a finite non-negative number")
    if rule not in ("product", "proximity"):
        raise InputError(f"unknown valuation rule {rule!r} (use 'product' or 'proximity')")
    score = _score(s, d, rule)
    return float(score) if score.ndim == 0 else score


def _score(similarity: np.ndarray, dist_meters: np.ndarray, rule: str) -> np.ndarray:
    """:func:`valuation_score` on finite non-negative arrays and a known rule."""
    if rule == "product":
        return similarity * dist_meters
    return similarity / (1.0 + dist_meters)


def normalize_profile(raw_values, dist: ValuationDistribution) -> ValuationProfile:
    """Affine min-max map of raw scores onto the distribution support.

    Order preserving; the smallest raw score lands on ``dist.lower`` and
    the largest on ``dist.upper``.  A zero-spread vector, or one whose
    spread is too small to scale onto the support, cannot be normalized
    and raises ``DegenerateProfileError`` so the caller can assign
    midpoint values instead.
    """
    raw = np.asarray(raw_values, dtype=float)
    if raw.ndim != 1 or raw.size < 2:
        raise InputError("need at least two raw valuations")
    if not np.all(np.isfinite(raw)):
        raise InputError("raw valuations must be finite")
    scaled = _normalized(raw, dist)
    if scaled is None:
        raise DegenerateProfileError("raw valuations have too little spread to normalize")
    return ValuationProfile(scaled, dist)


def _normalized(raw: np.ndarray, dist: ValuationDistribution) -> np.ndarray | None:
    """The min-max map of a finite ``(N,)`` array into the support, as a new array.

    Returns ``None`` on zero spread, and on a spread so small that
    ``width / span`` overflows, which would turn the smallest score into
    NaN.  Any other finite non-negative input maps onto finite values in
    the support.
    """
    low = float(raw.min())
    span = float(raw.max()) - low
    scale = dist.width / span if span != 0.0 else math.inf
    if math.isinf(scale):
        return None
    scaled = dist.lower + (raw - low) * scale
    np.clip(scaled, dist.lower, dist.upper, out=scaled)
    return scaled
