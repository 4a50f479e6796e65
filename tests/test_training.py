"""Training loop: determinism, its seed stream, divergence, convergence, learned quality."""

import copy

import numpy as np
import pytest
from test_batch_properties import TINY, U

from myerson_airnet import cli, network, sim
from myerson_airnet.auction import ValuationDistribution, ValuationProfile, myerson_clear
from myerson_airnet.errors import TrainingDivergedError
from myerson_airnet.network import NetConfig, clear_batch, clear_hard, train, transform


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


def test_training_draws_from_a_stream_of_its_own(u01, monkeypatch):
    """Training's first draw is no other package stream's first draw of the seed.

    ``SeedSequence`` pads its entropy with zeros, so the bare seed is the
    simulator's tag-0 placement stream; every stream tag must differ too.
    """
    seed = 3
    first = []
    init_params = network.init_params

    def recording_init(config, rng):
        first.append(copy.deepcopy(rng).random(8))
        return init_params(config, rng)

    monkeypatch.setattr(network, "init_params", recording_init)
    train(small_config(seed=seed, iterations=1), u01)
    tags = (sim._TAG_PLACEMENT, sim._TAG_FIELD, sim._TAG_PILE, sim._TAG_SENTINEL,
            sim._TAG_REGEN, cli._TAG_TRAIN_EVAL, cli._TAG_EVAL, cli._TAG_GAP)
    for tag in tags:
        assert not np.array_equal(first[0], np.random.default_rng([seed, tag]).random(8)), tag
    assert len({*tags, network._TAG_TRAIN}) == len(tags) + 1


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
    """Each bidder's rectified top rival bid ``r_i = max(best rival T_j(b_j), 0)``
    and its threshold ``T_i^-1(r_i)``, written out.

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
    threshold = ((rival[:, :, None, None] - beta) * np.exp(-params.theta)[None]).max(
        axis=-1).min(axis=-1)
    return rival, threshold


def threshold_round_trip_bound(theta, beta, r):
    """Largest ``|transform(transform_inverse(r)) - r|`` that rounding allows.

    One piece inverts ``r`` as ``t = fl(fl(r - beta) * fl(exp(-theta)))`` and
    maps it back as ``fl(fl(fl(exp(theta)) * t) + beta)``.  Taking each
    ``exp`` within 4 ulps (relative error ``8u``) and every other operation
    within ``u``, the product ``fl(exp(theta)) * t`` is ``fl(r - beta)``
    times four relative errors, under ``19u``.  Adding ``beta`` back leaves
    ``r`` plus the subtraction's and that product's errors, under
    ``21u * |r - beta|``, and the sum's own rounding adds ``u * |r|``; the
    bound rounds these up to ``24u * |r - beta| + 2u * |r|``.  A product
    that underflows adds at most ``TINY`` in ``t``, carried through
    ``exp(theta)``, or ``TINY`` after it; the subtraction and the sum are
    exact in the subnormal range.  Every rounded piece and inverse piece is
    monotone, so if each piece round-trips ``r`` within its bound, the
    max-min transform of the min-max inverse does within the largest one:
    the group whose inverse sets ``t`` has every piece at or above ``r``
    minus its bound, and every group has a piece at or below ``r`` plus its.
    """
    per_piece = (24 * U * np.abs(r - beta) + 2 * U * abs(r)
                 + 2 * TINY * (1 + np.exp(theta)))
    return float(per_piece.max())


def test_trained_net_clears_by_the_threshold_rule(trained_u01, u01):
    """Myerson's characterization on 100k profiles x 5 bidders: a bidder wins
    exactly when its bid is above its threshold, a winner pays exactly its
    threshold, no winner pays more than its value, and the transform of a
    winner's payment is its rectified top rival bid within rounding."""
    params, _ = trained_u01
    rng = np.random.default_rng(223)
    wrong_allocation = wrong_payment = overpaid = off_rival = 0
    for _ in range(10):
        values = u01.sample(rng, (10_000, params.n_bidders))
        winner, payment = clear_batch(params, values)
        rival, threshold = threshold_bids(params, values)
        wins = winner[:, None] == np.arange(params.n_bidders)[None, :]
        wrong_allocation += int(np.count_nonzero(wins != (values > threshold)))
        sold = np.flatnonzero(winner >= 0)
        wrong_payment += int(np.count_nonzero(payment[sold] != threshold[sold, winner[sold]]))
        overpaid += int(np.count_nonzero(payment[sold] > values[sold, winner[sold]]))
        for w, p, r in zip(winner[sold], payment[sold], rival[sold, winner[sold]]):
            bound = threshold_round_trip_bound(params.theta[w], params.beta[w], r)
            off_rival += abs(transform(params, w, p) - r) > bound
    assert (wrong_allocation, wrong_payment, overpaid, off_rival) == (0, 0, 0, 0)
