"""Distance, image MSE, pile aggregation, valuation rules, normalization."""

import numpy as np
import pytest
from oracles import pair_mse

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.errors import DegenerateProfileError, InputError
from myerson_airnet.valuation import (distance, normalize_profile, pile_similarity, pile_terms,
                                      valuation_score)


def test_distance_examples():
    assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance((2.5, -1.0), (2.5, -1.0)) == 0.0
    assert distance((1.0, 1.0), (4.0, 5.0)) == 5.0


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(301)
    for _ in range(300):
        a, b, c = (tuple(rng.uniform(-100.0, 100.0, 2)) for _ in range(3))
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_pair_mse_examples():
    img = np.array([[0.2, 0.8], [0.4, 0.6]])
    assert pair_mse(img, img) == 0.0
    assert pair_mse(np.zeros((3, 5)), np.ones((3, 5))) == 1.0
    # one differing pixel out of four
    a = np.zeros((2, 2))
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert pair_mse(a, b) == 0.25
    assert pair_mse(a, b) == pair_mse(b, a)
    with pytest.raises(InputError):
        pair_mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_pile_similarity_examples():
    same = np.full((2, 3, 3), 0.5)
    assert pile_similarity(same[None], same).tolist() == [0.0]

    one = np.zeros((1, 2, 2))
    other = np.full((1, 2, 2), 0.5)
    assert pile_similarity(one[None], other)[0] == pair_mse(one[0], other[0])

    # {A, B} against {C} averages the two cross pairs
    a = np.zeros((2, 2))
    b = np.ones((2, 2))
    c = np.full((2, 2), 0.5)
    expected = (pair_mse(a, c) + pair_mse(b, c)) / 2.0
    assert pile_similarity(np.stack([a, b])[None], np.stack([c]))[0] == expected


def test_pile_similarity_matches_bruteforce():
    rng = np.random.default_rng(307)
    for _ in range(50):
        rows, cols = rng.integers(1, 5, 2)
        current = rng.random((3, rows, cols))
        previous = rng.random((3, rows, cols))
        pairs = [pair_mse(x, y) for x in current for y in previous]
        assert pile_similarity(current[None], previous)[0] == pytest.approx(np.mean(pairs),
                                                                            abs=1e-12)
        assert pile_similarity(current[None], previous, "min")[0] == pytest.approx(min(pairs),
                                                                                   abs=1e-12)


def test_pile_similarity_validation():
    small = np.zeros((1, 2, 2))
    big = np.zeros((1, 3, 3))
    with pytest.raises(InputError):
        pile_similarity(small[None], big)
    with pytest.raises(InputError):
        pile_similarity(small, small)  # the piles must come as a (D, P, R, C) stack
    with pytest.raises(InputError):
        pile_similarity(small[None], small, aggregate="median")
    # terms of another stack's shape
    norms, sums = pile_terms(np.zeros((2, 1, 2, 2)))
    with pytest.raises(InputError, match="terms"):
        pile_similarity(small[None], small, terms=(norms, sums))
    with pytest.raises(InputError, match="terms"):
        pile_similarity(small[None], small, terms=(norms[:1], sums[:1, :3]))
    with pytest.raises(InputError, match="stack"):
        pile_terms(small)


@pytest.mark.parametrize("aggregate", ["mean", "min"])
@pytest.mark.parametrize("piles, reference", [
    (np.zeros((2, 0, 4, 4)), np.zeros((3, 4, 4))),  # an empty pile
    (np.zeros((2, 3, 4, 4)), np.zeros((0, 4, 4))),  # an empty reference
    (np.zeros((2, 3, 0, 4)), np.zeros((3, 0, 4))),  # 0-pixel images
    (np.zeros((2, 3, 4, 0)), np.zeros((3, 4, 0))),
])
def test_pile_similarity_rejects_empty_piles_and_images(piles, reference, aggregate):
    with pytest.raises(InputError, match="non-empty"):
        pile_similarity(piles, reference, aggregate)


def test_raw_valuation():
    """The default product rule: redundancy gap times distance."""
    assert valuation_score(0.0, 123.0) == 0.0
    assert valuation_score(0.2, 5.0) == 1.0
    # doubling either factor doubles the product exactly
    assert valuation_score(2.0 * 0.3, 7.0) == 2.0 * valuation_score(0.3, 7.0)
    rng = np.random.default_rng(311)
    for _ in range(100):
        s, d, c = rng.uniform(0.0, 4.0, 3)
        assert valuation_score(c * s, d) == pytest.approx(c * valuation_score(s, d), rel=1e-12)
    with pytest.raises(InputError):
        valuation_score(-0.1, 1.0)
    with pytest.raises(InputError):
        valuation_score(0.1, -1.0)


def test_valuation_score_rules():
    assert valuation_score(0.2, 5.0, "product") == 0.2 * 5.0
    assert valuation_score(0.2, 5.0, "proximity") == 0.2 / 6.0
    for rule in ("product", "proximity"):
        for similarity, dist_meters in ((-0.1, 1.0), (0.1, -1.0), (float("nan"), 1.0),
                                        (0.1, float("inf"))):
            with pytest.raises(InputError):
                valuation_score(similarity, dist_meters, rule)
    with pytest.raises(InputError):
        valuation_score(0.2, 5.0, "inverse")


def test_normalize_profile_examples():
    dist = ValuationDistribution(0.5, 1.0)
    profile = normalize_profile([0.0, 1.0, 2.0], dist)
    assert profile.values == pytest.approx([0.5, 0.75, 1.0], abs=1e-12)
    assert profile.distribution is dist

    with pytest.raises(DegenerateProfileError):
        normalize_profile([3.0, 3.0, 3.0], dist)
    # width / span overflows, and the smallest score would map to 0 * inf = NaN
    with pytest.raises(DegenerateProfileError):
        normalize_profile([0.0, 5e-324, 1e-323], dist)
    with pytest.raises(InputError):
        normalize_profile([1.0], dist)


def test_normalize_profile_properties():
    dist = ValuationDistribution(0.5, 1.0)
    rng = np.random.default_rng(313)
    for _ in range(200):
        raw = rng.uniform(0.0, 50.0, 6)
        if raw.max() == raw.min():
            continue
        out = normalize_profile(raw, dist).values
        assert dist.contains(out)
        assert int(np.argmax(out)) == int(np.argmax(raw))
        assert out[np.argmin(raw)] == dist.lower
        # strict order on distinct raws survives the affine map
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(out[order]) >= 0.0)
