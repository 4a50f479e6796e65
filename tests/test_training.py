"""Training loop: determinism, divergence, convergence, learned quality."""

import numpy as np
import pytest

from myerson_airnet.auction import ValuationDistribution, ValuationProfile, myerson_clear
from myerson_airnet.errors import TrainingDivergedError
from myerson_airnet.network import NetConfig, clear_batch, clear_hard, train


def small_config(**overrides):
    base = dict(n_bidders=3, groups=2, linear_units=2, iterations=40,
                batch_size=64, learning_rate=0.1, seed=5)
    base.update(overrides)
    return NetConfig(**base)


def test_train_is_deterministic(u01):
    first_params, first_trace = train(small_config(), u01)
    second_params, second_trace = train(small_config(), u01)
    assert np.array_equal(first_trace.losses, second_trace.losses)
    assert np.array_equal(first_params.theta, second_params.theta)
    assert np.array_equal(first_params.beta, second_params.beta)


def test_different_seeds_differ(u01):
    _, a = train(small_config(seed=1), u01)
    _, b = train(small_config(seed=2), u01)
    assert not np.array_equal(a.losses, b.losses)


def test_trace_shape_and_final(u01):
    _, trace = train(small_config(iterations=25), u01)
    assert len(trace.losses) == 25
    assert trace.converged_at is None

    _, single = train(small_config(iterations=1), u01)
    assert len(single.losses) == 1


def test_divergence_error_names_iteration(u01):
    """An exploding step drives the loss non-finite within a few iterations."""
    with pytest.raises(TrainingDivergedError, match=r"iteration \d+"):
        train(small_config(learning_rate=1e8, iterations=50), u01)


def test_convergence_window(u01):
    """A huge tolerance trips the 20-iteration window at the first chance."""
    _, trace = train(small_config(iterations=200, convergence_tol=100.0), u01)
    assert trace.converged_at == 19
    assert len(trace.losses) == 20


def test_default_config_loss_trend_u051(u051):
    """Full-size run on uniform[0.5, 1]: finite, trending down."""
    _, trace = train(NetConfig(), u051)
    assert len(trace.losses) == 500
    assert np.all(np.isfinite(trace.losses))
    assert trace.losses[-100:].mean() <= trace.losses[:100].mean()


def test_trained_winner_agreement_with_analytic(trained_u01, u01):
    """The trained net clears like the analytic optimum on most profiles."""
    params, trace = trained_u01
    assert np.all(np.isfinite(trace.losses))
    rng = np.random.default_rng(211)
    agree = 0
    total = 10_000
    for _ in range(total):
        values = u01.sample(rng, 5)
        learned = clear_hard(params, values)
        oracle = myerson_clear(ValuationProfile(values, u01))
        if learned.winner == oracle.winner:
            agree += 1
        if learned.sold:
            assert learned.payment <= values[learned.winner] + 1e-9
    assert agree / total >= 0.95


def test_trained_reserve_moved_toward_optimum(trained_u01):
    """Uniform[0,1] optimal reserve is 0.5; training starts near 0.2."""
    from myerson_airnet.network import transform_inverse

    params, _ = trained_u01
    reserves = [transform_inverse(params, i, 0.0) for i in range(params.n_bidders)]
    assert all(0.35 < r < 0.65 for r in reserves)


def threshold_bids(params, values):
    """Each bidder's threshold ``T_i^-1(max(best rival T_j(b_j), 0))``, written out.

    The pieces repeat the package's formulas, ``exp(theta) * v + beta`` and
    ``(y - beta) * exp(-theta)``, so a winner's payment equals its threshold
    bit for bit.
    """
    w = np.exp(params.theta)[None]
    beta = params.beta[None]
    tb = (w * values[:, :, None, None] + beta).min(axis=-1).max(axis=-1)
    mine = np.eye(values.shape[1], dtype=bool)
    rival = np.where(mine, -np.inf, tb[:, None, :]).max(axis=-1)
    rival = np.where(rival < 0.0, 0.0, rival)
    return ((rival[:, :, None, None] - beta) * np.exp(-params.theta)[None]).max(axis=-1).min(
        axis=-1)


def test_trained_net_clears_by_the_threshold_rule(trained_u01, u01):
    """Myerson's characterization on 100k profiles x 5 bidders: a bidder wins
    exactly when its bid is above its threshold, a winner pays exactly its
    threshold, and no winner pays more than its value."""
    params, _ = trained_u01
    rng = np.random.default_rng(223)
    wrong_allocation = wrong_payment = overpaid = 0
    for _ in range(10):
        values = u01.sample(rng, (10_000, params.n_bidders))
        winner, payment = clear_batch(params, values)
        threshold = threshold_bids(params, values)
        wins = winner[:, None] == np.arange(params.n_bidders)[None, :]
        wrong_allocation += int(np.count_nonzero(wins != (values > threshold)))
        sold = np.flatnonzero(winner >= 0)
        wrong_payment += int(np.count_nonzero(payment[sold] != threshold[sold, winner[sold]]))
        overpaid += int(np.count_nonzero(payment[sold] > values[sold, winner[sold]]))
    assert (wrong_allocation, wrong_payment, overpaid) == (0, 0, 0)
