"""Batch/scalar parity of the valuation kernels, checked on generated inputs.

The simulator scores a whole market per call; these properties pin that
the batch results equal, bit for bit, what one pile or one device at a
time computes, and that bad entries anywhere in a batch are still
rejected.  The support test is checked against its spelled-out form on
arrays that mix in-support values with NaN and infinities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.errors import InputError
from myerson_airnet.valuation import ImagePile, pile_similarity, valuation_score

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
    per_pile = [pile_similarity(ImagePile(pile), ImagePile(reference), aggregate)
                for pile in stack]
    oracle = [all_pairs_similarity(pile, reference, aggregate) for pile in stack]
    assert batched.tolist() == per_pile == oracle


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
