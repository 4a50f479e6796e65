"""Shared fixtures: distributions, big Monte-Carlo oracles, trained nets.

The expensive artifacts (100k-profile revenue oracles, trained
parameters) are session scoped so the revenue and truthfulness tests
share one computation.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import masked_rivals

from myerson_airnet.auction import ValuationDistribution, myerson_batch, spa_batch
from myerson_airnet.network import NetConfig, loss, train


@pytest.fixture(scope="session")
def datadir():
    return Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def u01():
    return ValuationDistribution(0.0, 1.0)


@pytest.fixture(scope="session")
def u051():
    return ValuationDistribution(0.5, 1.0)


@pytest.fixture(scope="session")
def big_test_profiles(u01):
    """100,000 fresh five-bidder profiles for the revenue comparisons."""
    rng = np.random.default_rng(20260814)
    return u01.sample(rng, (100_000, 5))


@pytest.fixture(scope="session")
def big_test_revenues(big_test_profiles, u01):
    """(spa, myerson) per-profile revenue oracles on the shared test set."""
    return spa_batch(big_test_profiles)[1], myerson_batch(big_test_profiles, u01)[1]


@pytest.fixture(scope="session")
def trained_u01(u01):
    """Default-budget training run reused by the learned-mechanism tests."""
    return train(NetConfig(seed=0), u01)


@pytest.fixture(scope="session")
def fd_grad():
    """Central finite differences of the loss, the gradient oracle."""

    def nudged_loss(params, name, idx, value, values, kappa):
        """The loss of ``params`` with entry ``idx`` of its ``name`` array set to ``value``."""
        array = getattr(params, name).copy()
        array[idx] = value
        return loss(replace(params, **{name: array}), values, kappa)

    def differentiate(params, values, kappa, h=1e-5):
        dtheta = np.zeros_like(params.theta)
        dbeta = np.zeros_like(params.beta)
        for name, out in (("theta", dtheta), ("beta", dbeta)):
            for idx in np.ndindex(out.shape):
                keep = getattr(params, name)[idx]
                up = nudged_loss(params, name, idx, keep + h, values, kappa)
                down = nudged_loss(params, name, idx, keep - h, values, kappa)
                out[idx] = (up - down) / (2.0 * h)
        return dtheta, dbeta

    return differentiate


@pytest.fixture(scope="session")
def nontie_sampler():
    """Draw (params, batch) pairs away from every non-smooth point.

    Finite differences are only a valid oracle where the active max/min
    pieces, the rival argmax, and the ReLU gate stay fixed under an h
    perturbation, so candidates are resampled until all selection
    margins clear a safety threshold.
    """
    from myerson_airnet.network import MonotoneNetParams

    def margins_ok(params, values, kappa, margin=1e-3):
        w = np.exp(params.theta)
        pieces = w[None] * values[:, :, None, None] + params.beta[None]
        srt = np.sort(pieces, axis=3)
        if pieces.shape[3] > 1 and (srt[..., 1] - srt[..., 0]).min() < margin:
            return False
        min_j = pieces.min(axis=3)
        srt = np.sort(min_j, axis=2)
        if min_j.shape[2] > 1 and (srt[..., -1] - srt[..., -2]).min() < margin:
            return False
        rivals = masked_rivals(min_j.max(axis=2))
        rmax = rivals.max(axis=2)
        if np.abs(rmax).min() < margin:  # ReLU gate must not sit near 0
            return False
        top2 = np.sort(rivals, axis=2)
        if values.shape[1] > 2 and (top2[..., -1] - top2[..., -2]).min() < margin:
            return False
        r = np.maximum(rmax, 0.0)
        inv = (r[:, :, None, None] - params.beta[None]) / w[None]
        srt = np.sort(inv, axis=3)
        if inv.shape[3] > 1 and (srt[..., -1] - srt[..., -2]).min() < margin:
            return False
        max_j = inv.max(axis=3)
        srt = np.sort(max_j, axis=2)
        if max_j.shape[2] > 1 and (srt[..., 1] - srt[..., 0]).min() < margin:
            return False
        return True

    def sample(rng, shape, kappa, batch=8):
        n, k, j = shape
        while True:
            params = MonotoneNetParams(rng.normal(0.0, 0.6, (n, k, j)),
                                       rng.normal(-0.2, 0.5, (n, k, j)), kappa)
            values = rng.uniform(0.05, 1.0, (batch, n))
            if margins_ok(params, values, kappa):
                return params, values

    return sample


@pytest.fixture(scope="session")
def deviation_suite():
    """Dominant-strategy deviation harness shared by the truthfulness tests.

    ``clear`` is a batch clear, ``(S, N) -> (winner, payment)`` with winner
    ``-1`` on no sale.  Each profile draws its bidder, then that bidder's
    misreports from the support; the truthful rows and the misreport rows
    clear in one call.  Returns (violations, trials, worst gain); a
    violation is a deviation utility exceeding the truthful utility by
    more than float noise.
    """

    def run(clear, profiles, dist, deviations, rng, tol=1e-12):
        n_profiles, n_bidders = profiles.shape
        bidder = np.empty(n_profiles, dtype=np.intp)
        reports = np.empty((n_profiles, deviations))
        for row in range(n_profiles):
            bidder[row] = rng.integers(n_bidders)
            reports[row] = rng.uniform(dist.lower, dist.upper, deviations)
        misreported = np.repeat(profiles, deviations, axis=0)
        who = np.repeat(bidder, deviations)
        misreported[np.arange(who.size), who] = reports.ravel()
        winner, payment = clear(np.vstack([profiles, misreported]))

        value = profiles[np.arange(n_profiles), bidder]
        base = np.where(winner[:n_profiles] == bidder, value - payment[:n_profiles], 0.0)
        won = winner[n_profiles:] == who
        utility = np.where(won, np.repeat(value, deviations) - payment[n_profiles:], 0.0)
        gain = utility - np.repeat(base, deviations)
        profitable = gain[gain > tol]
        return profitable.size, who.size, float(profitable.max(initial=0.0))

    return run
