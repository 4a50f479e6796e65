"""Batch/scalar parity of the valuation kernels, checked on generated inputs.

The simulator scores a whole market per call; these properties pin that
the batch results equal, bit for bit, what one pile or one device at a
time computes, and that bad entries anywhere in a batch are still
rejected.  Pile similarity must also equal, bit for bit, its per-image
form in ``oracles`` on any shape, dtype or memory layout.  The support
test is checked against its spelled-out form on arrays that mix
in-support values with NaN and infinities, and the learned transform's
inverse undoes it within a bound derived from its piece formulas.
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
from myerson_airnet.valuation import pile_similarity, valuation_score

pixels = st.floats(0.0, 1.0)
finite = st.floats(0.0, 1e6)
small = st.integers(1, 5)


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
    oracle = [all_pairs_similarity(pile, reference, aggregate) for pile in stack]
    assert batched.tolist() == per_pile == oracle


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def laid_out(rng, shape, layout, integer):
    """Random ``shape`` values, as integers or floats, in a C, strided or transposed layout."""
    def fill(full):
        return rng.integers(-40, 41, full) if integer else rng.uniform(-3.0, 3.0, full)
    if layout == "strided":
        return fill(shape[:-1] + (2 * shape[-1],))[..., ::2]
    if layout == "transposed":
        return fill(shape[::-1]).T
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
    layouts = [draw(st.sampled_from(["c", "strided", "transposed"])) for _ in range(2)]
    stack = laid_out(rng, (d, p, rows, cols), layouts[0], integer)
    reference = laid_out(rng, (q, rows, cols), layouts[1], integer)
    return stack, reference, "transposed" in layouts


@settings(deadline=None)
@given(similarity_cases(), st.sampled_from(["mean", "min"]))
def test_pile_similarity_equals_per_image_oracle_bitwise(data, aggregate):
    """The oracle's ``np.mean`` sums pixels in memory order and the kernel always
    sums them row-major: they agree on row-major data, and the kernel's bits do
    not depend on the layout it is given."""
    stack, reference, transposed = data
    result = pile_similarity(stack, reference, aggregate)
    oracle = pile_similarity_per_image(np.ascontiguousarray(stack),
                                       np.ascontiguousarray(reference), aggregate)
    assert np.array_equal(bits(result), bits(oracle))
    if not transposed:
        assert np.array_equal(bits(result),
                              bits(pile_similarity_per_image(stack, reference, aggregate)))


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


U = 2.0 ** -53  # float64 unit roundoff
TINY = 2.0 ** -1074  # smallest subnormal: the most an underflowing operation can lose


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
