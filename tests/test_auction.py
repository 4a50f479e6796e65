"""Analytic mechanism oracles: second-price and optimal uniform clearing."""

import numpy as np
import pytest

from myerson_airnet.auction import (AuctionOutcome, ValuationDistribution, ValuationProfile,
                                    myerson_clear, spa_clear, virtual_valuation,
                                    virtual_valuation_inverse)
from myerson_airnet.errors import DomainError, InputError


def test_distribution_basics():
    dist = ValuationDistribution(0.5, 1.0)
    assert dist.width == 0.5
    assert dist.midpoint == 0.75
    assert dist.cdf(0.5) == 0.0
    assert dist.cdf(1.0) == 1.0
    assert dist.pdf(0.7) == 2.0
    assert dist.contains([0.5, 0.75, 1.0])
    assert not dist.contains(0.49)


def test_distribution_validation():
    with pytest.raises(InputError):
        ValuationDistribution(1.0, 1.0)
    with pytest.raises(InputError):
        ValuationDistribution(2.0, 1.0)
    with pytest.raises(InputError):
        ValuationDistribution(0.0, float("inf"))


def test_distribution_sampling_in_support():
    dist = ValuationDistribution(0.5, 1.0)
    draws = dist.sample(np.random.default_rng(0), 1000)
    assert draws.shape == (1000,)
    assert dist.contains(draws)


def test_profile_validation():
    dist = ValuationDistribution(0.0, 1.0)
    profile = ValuationProfile([0.2, 0.9, 0.4], dist)
    assert profile.n_bidders == 3
    with pytest.raises(ValueError):
        profile.values[0] = 0.5  # frozen
    with pytest.raises(InputError):
        ValuationProfile([0.5], dist)
    with pytest.raises(InputError):
        ValuationProfile([0.5, 1.2], dist)
    with pytest.raises(InputError):
        ValuationProfile([0.5, float("nan")], dist)


def test_spa_examples():
    out = spa_clear([0.9, 0.7, 0.6])
    assert out.winner == 0
    assert out.payment == 0.7
    assert out.revenue == 0.7
    assert list(out.allocation) == [1.0, 0.0, 0.0]

    tie = spa_clear([0.5, 0.5])
    assert tie.winner == 0  # ties break to the lowest index
    assert tie.payment == 0.5


def test_spa_input_validation():
    with pytest.raises(InputError):
        spa_clear([0.5])
    with pytest.raises(InputError):
        spa_clear([0.5, -0.1])
    with pytest.raises(InputError):
        spa_clear([0.5, float("inf")])


def test_spa_mean_revenue_matches_order_statistic():
    """E[second highest of 5 U(0,1)] = (N-1)/(N+1) = 2/3."""
    rng = np.random.default_rng(7)
    profiles = rng.uniform(0.0, 1.0, (10_000, 5))
    mean = np.mean([spa_clear(row).revenue for row in profiles])
    assert abs(mean - 2.0 / 3.0) < 0.01


def test_virtual_valuation_examples():
    u051 = ValuationDistribution(0.5, 1.0)
    u01 = ValuationDistribution(0.0, 1.0)
    assert virtual_valuation(1.0, u051) == 1.0
    assert virtual_valuation(0.5, u051) == 0.0
    assert virtual_valuation(0.5, u01) == 0.0

    # generic uniform[a, b] closed form is 2v - b
    rng = np.random.default_rng(3)
    dist = ValuationDistribution(2.0, 7.0)
    for v in dist.sample(rng, 50):
        assert virtual_valuation(v, dist) == pytest.approx(2.0 * v - 7.0, abs=1e-12)


def test_virtual_valuation_domain():
    dist = ValuationDistribution(0.5, 1.0)
    with pytest.raises(DomainError):
        virtual_valuation(0.4, dist)
    with pytest.raises(DomainError):
        virtual_valuation(1.1, dist)


def test_virtual_inverse_examples():
    assert virtual_valuation_inverse(0.0, ValuationDistribution(0.0, 1.0)) == 0.5
    assert virtual_valuation_inverse(1.0, ValuationDistribution(0.5, 1.0)) == 1.0
    with pytest.raises(DomainError):
        virtual_valuation_inverse(-1.5, ValuationDistribution(0.0, 1.0))
    with pytest.raises(DomainError):
        virtual_valuation_inverse(1.25, ValuationDistribution(0.0, 1.0))


def test_virtual_roundtrip():
    rng = np.random.default_rng(11)
    for dist in (ValuationDistribution(0.0, 1.0), ValuationDistribution(0.5, 1.0),
                 ValuationDistribution(2.0, 7.0)):
        for v in dist.sample(rng, 1000):
            y = virtual_valuation(v, dist)
            assert abs(virtual_valuation_inverse(y, dist) - v) < 1e-12


def test_myerson_examples():
    u01 = ValuationDistribution(0.0, 1.0)

    out = myerson_clear(ValuationProfile([0.8, 0.6], u01))
    assert out.winner == 0
    assert out.payment == pytest.approx(0.6, abs=1e-12)

    # runner-up virtual valuation is negative, so the 0.5 reserve binds
    reserve = myerson_clear(ValuationProfile([0.6, 0.3], u01))
    assert reserve.winner == 0
    assert reserve.payment == 0.5

    unsold = myerson_clear(ValuationProfile([0.3, 0.2], u01))
    assert unsold.winner is None
    assert unsold.payment == 0.0
    assert unsold.revenue == 0.0
    assert not unsold.sold


def test_myerson_winner_is_argmax_of_values():
    u01 = ValuationDistribution(0.0, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        values = rng.uniform(0.0, 1.0, 5)
        out = myerson_clear(ValuationProfile(values, u01))
        if out.sold:
            assert out.winner == int(np.argmax(values))


def test_outcome_invariants_random_profiles():
    """Revenue equals payment; allocation one-hot; winner never overpays."""
    u01 = ValuationDistribution(0.0, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(2000):
        values = rng.uniform(0.0, 1.0, 4)
        for out in (spa_clear(values), myerson_clear(ValuationProfile(values, u01))):
            assert isinstance(out, AuctionOutcome)
            assert out.revenue == out.payment
            if out.sold:
                assert out.allocation[out.winner] == 1.0
                assert out.allocation.sum() == 1.0
                assert out.payment <= values[out.winner] + 1e-12
            else:
                assert not out.allocation.any()
                assert out.payment == 0.0


def test_spa_truthfulness(deviation_suite, u01):
    rng = np.random.default_rng(17)
    profiles = u01.sample(rng, (10_000, 5))
    violations, trials, worst = deviation_suite(spa_clear, profiles, u01, 1, rng)
    assert trials == 10_000
    assert violations == 0, f"worst gain {worst}"


def test_myerson_truthfulness(deviation_suite):
    rng = np.random.default_rng(19)
    for dist in (ValuationDistribution(0.0, 1.0), ValuationDistribution(0.5, 1.0)):
        profiles = dist.sample(rng, (5_000, 5))
        clear = lambda values: myerson_clear(ValuationProfile(values, dist))
        violations, _, worst = deviation_suite(clear, profiles, dist, 1, rng)
        assert violations == 0, f"worst gain {worst}"


def test_nonbinding_reserve_matches_spa_exactly(u051):
    """On uniform[0.5, 1] the reserve sits at the support minimum.

    2v - 1 and (y + 1) / 2 are exact in binary floating point on this
    support, so the optimal mechanism and second price agree bitwise.
    """
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        values = rng.uniform(0.5, 1.0, 5)
        optimal = myerson_clear(ValuationProfile(values, u051))
        second = spa_clear(values)
        assert optimal.winner == second.winner
        assert optimal.payment == second.payment


def test_revenue_dominance_100k(big_test_revenues):
    spa, mye = big_test_revenues
    assert mye.mean() > spa.mean()
