"""Batch/scalar parity of the valuation kernels, checked on generated inputs.

The simulator scores a whole market per call; these properties pin that
the batch results equal, bit for bit, what one pile or one device at a
time computes, and that bad entries anywhere in a batch are still
rejected.  A pile's similarity terms taken alone are the bits of its
row of a stack's, as the simulator's cached terms need.  Pile similarity
gives the same bits on any memory layout, is never negative, is exactly
zero for an image against itself, and lies within a bound derived from
its summation formulas of the direct per-pair mean in ``oracles`` on any
shape or dtype.  The support test is checked against its spelled-out
form on arrays that mix in-support values with NaN and infinities, and
the learned transform's inverse undoes it within a bound derived from
its piece formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import pile_similarity_per_image

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.errors import InputError
from myerson_airnet.network import MonotoneNetParams, transform, transform_inverse
from myerson_airnet.valuation import pile_similarity, pile_terms, valuation_score

pixels = st.floats(0.0, 1.0)
finite = st.floats(0.0, 1e6)
small = st.integers(1, 5)

U = 2.0 ** -53  # float64 unit roundoff
TINY = 2.0 ** -1074  # smallest subnormal: the most an underflowing operation can lose


def gamma(n):
    """``n u / (1 - n u)``: the most ``n`` roundings can move a value, relatively."""
    return n * U / (1 - n * U)


def similarity_rounding_bound(piles, reference, aggregate):
    """Largest ``|pile_similarity - pile_similarity_per_image|`` that rounding allows, per pile.

    Over ``K`` pixels a pair's exact MSE is ``D / K``, ``D = sum((a - b)^2)``.
    The direct form rounds each term twice (difference, square), sums
    the ``K`` non-negative terms in some order and divides: it lies
    within ``gamma(K + 2) * D / K``.  The Gram form takes ``a.b``,
    ``|a|^2`` and ``|b|^2`` as sums of ``K`` rounded products, each
    within ``gamma(K)`` of its terms' magnitudes, scales by the exact
    ``-2`` and adds the three with two more roundings.  So before the
    clamp it lies within ``gamma(K + 2) * M`` of ``D``, where
    ``M = sum((|a| + |b|)^2)`` is the sum of those magnitudes.  The clamp
    only moves it towards ``D >= 0``, and the division adds ``u`` of the
    result, so it lies within ``gamma(K + 3) * M / K + u * D / K``.  With
    ``D <= M`` the two forms of a pair differ by under
    ``2 gamma(K + 4) * M / K``; ``M`` computed here loses under
    ``gamma(K + 1)`` of itself, and the bound rounds both up to
    ``3 gamma(K + 4) * M / K``.  An underflowing product loses at most
    ``TINY``: ``4K`` products over both forms, carried through ``/ K``,
    plus the divisions' own; the bound adds ``8 TINY``.  ``min`` moves by
    at most the largest pair bound.

    ``mean`` sums all ``n = P*Q`` pairs at once from the piles' terms:
    the exact sum is ``S = Q Sa - 2 C + P Sb`` with ``Sa = sum_p n_p``,
    ``n_p = |a_p|^2``, ``C = A.B``, ``A = sum a_p``, ``B = sum b_q`` and
    ``Sb = sum_q m_q``, ``m_q = |b_q|^2``, and its exact mean is
    ``E = S / N``, ``N = n K``.  Each ``n_p`` and ``m_q`` is a sum of
    ``K`` rounded products, within ``gamma(K)`` of its terms'
    magnitudes, and ``Sa`` and ``Sb`` add ``P - 1`` and ``Q - 1`` more
    roundings.  Each ``A`` pixel takes ``P - 1`` additions and each ``B``
    pixel ``Q - 1``, and ``C`` is a ``K``-term dot of them, so it lies
    within ``gamma(K + P + Q - 2)`` of ``sum|a_p||b_q|``.  Scaling by
    ``Q`` and ``P`` rounds once, by ``2`` not at all, and the two
    additions round the first two terms twice and the last once.  So
    before the clamp the sum lies within ``gamma(m) * M`` of ``S``, where
    ``M = Q sum|a_p|^2 + 2 sum|a_p||b_q| + P sum|b_q|^2`` is the sum of
    the ``n`` pairs' magnitudes above and ``m = K + P + Q + 1`` covers
    the three terms' ``K + P + 2``, ``K + P + Q`` and ``K + Q + 1``.  The
    clamp and the division by the exact ``N`` leave the result within
    ``gamma(m + 1) * M / N + u * E`` of ``E``.  The oracle averages the
    ``n`` pair scores, each within ``gamma(K + 2)`` of its exact MSE, so
    it lies within ``gamma(K + n + 2) * E`` of ``E``.  With ``E <= M / N``
    the two differ by under ``gamma(m + K + n + 4) * M / N``.  ``M``
    computed here sums the ``n`` pair magnitudes, so it loses under
    ``gamma(K + n)`` of itself, which costs ``2 (K + n)`` more roundings
    in ``gamma``, and the bound's own five operations five more:
    ``gamma(m + 3K + 3n + 9) * M / N``.  An underflowing product loses at most ``TINY``, and an integer scaling
    or an addition loses nothing to underflow: the kernel's
    ``2N + 2K <= 4N`` weighted products through ``/ N`` and the
    division's own give ``5 TINY``, the oracle's pair scores and its
    average ``3 TINY``; the bound adds ``8 TINY``.
    Each ``TINY`` is twice what round-to-nearest loses, which leaves room
    for the relative roundings that later operations put on it.
    """
    stack = np.asarray(piles, dtype=float)
    reference = np.asarray(reference, dtype=float)
    pixels = stack.shape[2] * stack.shape[3]
    a = np.abs(stack.reshape(stack.shape[:2] + (1, pixels)))
    b = np.abs(reference.reshape(1, 1, -1, pixels))
    magnitude = ((a + b) ** 2).sum(axis=3)
    if aggregate == "min":
        per_pair = 3 * gamma(pixels + 4) * magnitude / pixels + 8 * TINY
        return per_pair.max(axis=(1, 2))
    images, refs = magnitude.shape[1:]
    n = images * refs
    rounds = pixels + images + refs + 1 + 3 * pixels + 3 * n + 9
    return gamma(rounds) * magnitude.sum(axis=(1, 2)) / (n * pixels) + 8 * TINY


@st.composite
def stack_and_reference(draw):
    """A ``(D, P, R, C)`` stack and a ``(Q, R, C)`` reference pile."""
    d, p, q, rows, cols = (draw(small) for _ in range(5))
    stack = draw(arrays(np.float64, (d, p, rows, cols), elements=pixels))
    reference = draw(arrays(np.float64, (q, rows, cols), elements=pixels))
    return stack, reference


def all_pairs_similarity(pile, reference, aggregate):
    """Reference formula: the full (P, Q, R, C) difference tensor of one pile."""
    per_pair = np.mean((pile[:, None] - reference[None, :]) ** 2, axis=(2, 3))
    return float(per_pair.mean() if aggregate == "mean" else per_pair.min())


@settings(deadline=None)
@given(stack_and_reference(), st.sampled_from(["mean", "min"]))
def test_batched_pile_similarity_equals_per_pile_loop(data, aggregate):
    stack, reference = data
    batched = pile_similarity(stack, reference, aggregate)
    assert batched.shape == (stack.shape[0],)
    per_pile = [pile_similarity(pile[None], reference, aggregate)[0] for pile in stack]
    assert batched.tolist() == per_pile
    oracle = [all_pairs_similarity(pile, reference, aggregate) for pile in stack]
    bound = similarity_rounding_bound(stack, reference, aggregate)
    assert np.all(np.abs(batched - oracle) <= bound)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def laid_out(rng, shape, layout, integer):
    """Random ``shape`` values, integers or floats, in C, Fortran, strided or transposed layout."""
    def fill(full):
        return rng.integers(-40, 41, full) if integer else rng.uniform(-3.0, 3.0, full)
    if layout == "strided":
        return fill(shape[:-1] + (2 * shape[-1],))[..., ::2]
    if layout == "transposed":
        return fill(shape[::-1]).T
    if layout == "fortran":
        return np.asfortranarray(fill(shape))
    return fill(shape)


@st.composite
def similarity_cases(draw):
    """A stack and reference of 1 to 8 piles, 1x1 to 20x20 images, any layout."""
    d = draw(st.integers(1, 8))
    p, q = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    rows, cols = draw(st.one_of(st.just((1, 1)),
                                st.tuples(st.integers(1, 6), st.integers(1, 6)),
                                # past numpy's 128-element pairwise-sum block
                                st.tuples(st.integers(9, 20), st.integers(15, 20))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    layouts = [draw(st.sampled_from(["c", "fortran", "strided", "transposed"]))
               for _ in range(2)]
    stack = laid_out(rng, (d, p, rows, cols), layouts[0], integer)
    reference = laid_out(rng, (q, rows, cols), layouts[1], integer)
    return stack, reference


@settings(deadline=None)
@given(similarity_cases(), st.sampled_from(["mean", "min"]))
def test_pile_similarity_equals_per_image_oracle_bitwise(data, aggregate):
    """The kernel's bits do not depend on the layout it is given, and lie
    within the rounding bound of the direct per-image oracle, which sums
    pixels row-major on C-contiguous copies."""
    stack, reference = data
    result = pile_similarity(stack, reference, aggregate)
    row_major = np.ascontiguousarray(stack), np.ascontiguousarray(reference)
    assert np.array_equal(bits(result), bits(pile_similarity(*row_major, aggregate)))
    oracle = pile_similarity_per_image(*row_major, aggregate)
    assert np.all(np.abs(result - oracle) <= similarity_rounding_bound(stack, reference,
                                                                       aggregate))


@settings(deadline=None)
@given(similarity_cases())
def test_pile_terms_of_one_pile_equal_its_row_of_the_stack_bitwise(data):
    """The simulator recomputes one device's row of terms at a time and
    scores its whole stack with them, so a pile's terms taken alone must
    be the bits of its row of the stack's, on any layout."""
    stack, _ = data
    terms = pile_terms(stack)
    assert np.array_equal(bits(terms[2]), bits(terms[0].sum(axis=1)))
    for device, pile in enumerate(stack):
        for whole, alone in zip(terms, pile_terms(pile[None])):
            assert np.array_equal(bits(whole[device]), bits(alone[0]))


@st.composite
def near_copies(draw):
    """A reference pile and a stack of its images, each pixel a few ulps away."""
    d, q, rows, cols = (draw(small) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = rng.random((q, rows, cols))
    steps = rng.integers(-3, 4, (d, q, rows, cols))
    stack = reference + steps * np.spacing(reference)
    return stack, reference


@settings(deadline=None)
@given(near_copies(), st.sampled_from(["mean", "min"]))
def test_pile_similarity_is_never_negative(data, aggregate):
    """``min``'s ``-2 a.b + |a|^2 + |b|^2`` and ``mean``'s
    ``Q sum|a_p|^2 - 2 sum a_p.B + P sum|b_q|^2`` of nearly equal images
    can round below zero; scores stay non-negative, so ``valuation_score``
    accepts them."""
    stack, reference = data
    similarity = pile_similarity(stack, reference, aggregate)
    assert np.all(similarity >= 0.0)
    valuation_score(similarity, np.ones(len(similarity)), "product")


@settings(deadline=None)
@given(similarity_cases(), st.data())
def test_pile_similarity_of_identical_images_is_exactly_zero(data, draw):
    stack, _ = data
    device = draw.draw(st.integers(0, stack.shape[0] - 1))
    assert pile_similarity(stack, stack[device], "min")[device] == 0.0
    image = stack[device, :1]
    assert pile_similarity(image[None], image, "mean")[0] == 0.0


@settings(deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(arrays(np.float64, n, elements=finite),
                                                      arrays(np.float64, n, elements=finite))),
       st.sampled_from(["product", "proximity"]))
def test_array_valuation_score_equals_scalar_calls(data, rule):
    sims, dists = data
    batched = valuation_score(sims, dists, rule)
    scalar = [valuation_score(float(s), float(d), rule) for s, d in zip(sims, dists)]
    assert batched.tolist() == scalar


@settings(deadline=None)
@given(arrays(np.float64, st.integers(1, 20), elements=finite), st.data(),
       st.sampled_from([float("nan"), -1e-300, -2.0, float("inf"), float("-inf")]),
       st.sampled_from(["product", "proximity"]), st.booleans())
def test_bad_entries_anywhere_raise(values, data, bad, rule, in_similarity):
    corrupted = values.copy()
    corrupted[data.draw(st.integers(0, values.size - 1))] = bad
    args = (corrupted, values) if in_similarity else (values, corrupted)
    with pytest.raises(InputError):
        valuation_score(*args, rule)


@settings(deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
              elements=st.one_of(st.floats(0.4, 1.1),
                                 st.sampled_from([np.nan, np.inf, -np.inf]))))
def test_support_test_matches_its_elementwise_form(values):
    dist = ValuationDistribution(0.5, 1.0)
    inside = np.all(np.isfinite(values)) and np.all((values >= 0.5) & (values <= 1.0))
    assert dist.contains(values) is bool(inside)


def round_trip_bound(theta, beta, bid):
    """Largest ``|transform_inverse(transform(bid)) - bid|`` that rounding allows.

    One piece computes ``y = fl(fl(w * bid) + beta)`` with ``w = exp(theta)``
    and inverts it as ``fl(fl(y - beta) * exp(-theta))``.  Taking ``exp``
    within 4 ulps (relative error ``8u``) and every other operation within
    ``u``, the round trip is ``bid`` times six relative errors, under
    ``24u * |bid|``, plus the sum's rounding of ``beta`` carried through
    ``exp(-theta)``, under ``2u * |beta| * exp(-theta)``.  An operation
    that underflows adds at most ``TINY``, before or after that scaling.
    Every rounded piece and inverse piece is monotone, so the max-min
    transform and its min-max inverse stay within the largest one-piece
    bound over the bidder's pieces.
    """
    scale = np.exp(-theta)
    per_piece = 24 * U * abs(bid) + 2 * U * np.abs(beta) * scale + 4 * TINY * (1 + scale)
    return float(per_piece.max())


@st.composite
def net_bidder_and_bid(draw):
    """A net of any shape up to six bidders, groups and units, one bidder and a bid."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    theta = draw(arrays(np.float64, shape, elements=st.floats(-20.0, 20.0)))
    beta = draw(arrays(np.float64, shape, elements=st.floats(-5.0, 5.0)))
    bidder = draw(st.integers(0, shape[0] - 1))
    return MonotoneNetParams(theta, beta, 100.0), bidder, draw(st.floats(0.0, 1.0))


@settings(deadline=None)
@given(net_bidder_and_bid())
def test_transform_inverse_undoes_transform_within_rounding(data):
    params, bidder, bid = data
    back = transform_inverse(params, bidder, transform(params, bidder, bid))
    assert abs(back - bid) <= round_trip_bound(params.theta[bidder], params.beta[bidder], bid)
