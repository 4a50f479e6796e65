"""Distance, image MSE, pile aggregation, valuation rules, normalization."""

import numpy as np
import pytest

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.errors import DegenerateProfileError, InputError
from myerson_airnet.valuation import (ImagePile, Position, distance, normalize_profile,
                                      pair_mse, pile_similarity, valuation_score)


def test_distance_examples():
    assert distance(Position(0.0, 0.0), Position(3.0, 4.0)) == 5.0
    assert distance(Position(2.5, -1.0), Position(2.5, -1.0)) == 0.0
    assert distance(Position(1.0, 1.0), Position(4.0, 5.0)) == 5.0


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(301)
    for _ in range(300):
        a, b, c = (Position(*rng.uniform(-100.0, 100.0, 2)) for _ in range(3))
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_position_requires_finite():
    with pytest.raises(InputError):
        Position(float("nan"), 0.0)
    with pytest.raises(InputError):
        Position(0.0, float("inf"))


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
    same = ImagePile(np.full((2, 3, 3), 0.5))
    assert pile_similarity(same, same) == 0.0

    one = ImagePile(np.zeros((1, 2, 2)))
    other = ImagePile(np.full((1, 2, 2), 0.5))
    assert pile_similarity(one, other) == pair_mse(one.images[0], other.images[0])

    # {A, B} against {C} averages the two cross pairs
    a = np.zeros((2, 2))
    b = np.ones((2, 2))
    c = np.full((2, 2), 0.5)
    pair = ImagePile(np.stack([a, b]))
    single = ImagePile(np.stack([c]))
    expected = (pair_mse(a, c) + pair_mse(b, c)) / 2.0
    assert pile_similarity(pair, single) == expected


def test_pile_similarity_matches_bruteforce():
    rng = np.random.default_rng(307)
    for _ in range(50):
        rows, cols = rng.integers(1, 5, 2)
        current = ImagePile(rng.random((3, rows, cols)))
        previous = ImagePile(rng.random((3, rows, cols)))
        pairs = [pair_mse(x, y) for x in current.images for y in previous.images]
        assert pile_similarity(current, previous) == pytest.approx(np.mean(pairs), abs=1e-12)
        assert pile_similarity(current, previous, "min") == pytest.approx(min(pairs), abs=1e-12)


def test_pile_similarity_validation():
    small = ImagePile(np.zeros((1, 2, 2)))
    big = ImagePile(np.zeros((1, 3, 3)))
    with pytest.raises(InputError):
        pile_similarity(small, big)
    with pytest.raises(InputError):
        pile_similarity(small, small, aggregate="median")


def test_image_pile_validation():
    with pytest.raises(InputError):
        ImagePile(np.zeros((2, 2)))  # needs a (count, rows, cols) stack
    with pytest.raises(InputError):
        ImagePile(np.full((1, 2, 2), 1.5))
    with pytest.raises(InputError):
        ImagePile(np.full((1, 2, 2), -0.1))
    pile = ImagePile(np.zeros((2, 3, 4)))
    assert (pile.count, pile.rows, pile.cols) == (2, 3, 4)
    with pytest.raises(ValueError):
        pile.images[0, 0, 0] = 1.0  # frozen


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
