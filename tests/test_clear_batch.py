"""Batch clearing against the per-profile calls, bit for bit.

``network.clear_batch``, ``auction.spa_batch`` and ``auction.myerson_batch``
clear a whole ``(S, N)`` matrix at once; ``train`` uses the first two for
its held-out check.  Each row must clear exactly as one ``clear_hard``
(``spa_clear``, ``myerson_clear``) call clears it: the same winner
(``None`` is ``-1``) and the same payment bits, sign of zero included, and
a learned clear's zero price is ``+0.0``.  The nets come
from the forward oracle's tie-heavy strategy, sometimes shifted down so
that rows go unsold.  ``clear_hard`` itself must clear as the per-profile
reference in ``oracles`` composes it: ``transform_profile``, the argmax,
then ``payment_soft``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import myerson_scalar, payment_soft, transform_profile
from test_forward_oracle import nets_and_values

from myerson_airnet import network
from myerson_airnet.auction import (AuctionOutcome, ValuationDistribution, ValuationProfile,
                                    myerson_batch, myerson_clear, spa_batch, spa_clear)
from myerson_airnet.errors import DomainError, InputError
from myerson_airnet.network import (MonotoneNetParams, NetConfig, clear_batch, clear_hard,
                                    grad, init_params, loss)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_clear_batch_matches_rows(params, values):
    winner, payment = clear_batch(params, values)
    assert winner.shape == payment.shape == (values.shape[0],)
    with np.errstate(all="ignore"):
        outcomes = [clear_hard(params, row) for row in values]
    assert winner.tolist() == [-1 if out.winner is None else out.winner for out in outcomes]
    assert np.array_equal(bits(payment), bits([out.payment for out in outcomes]))


def assert_spa_batch_matches_rows(values):
    winner, payment = spa_batch(values)
    outcomes = [spa_clear(row) for row in values]
    assert winner.tolist() == [out.winner for out in outcomes]
    assert np.array_equal(bits(payment), bits([out.payment for out in outcomes]))


@st.composite
def clearing_cases(draw):
    """A forward-oracle case whose offsets are sometimes pushed below zero."""
    params, values, _ = draw(nets_and_values())
    shift = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    if shift:
        params = MonotoneNetParams(params.theta, params.beta - shift, params.kappa)
    return params, values


def overflowing_net():
    """Three bidders whose slopes overflow, so a sold row's top rival is ``inf``."""
    return MonotoneNetParams(np.full((3, 1, 1), 800.0), np.zeros((3, 1, 1)))


# Offsets, one row of bids and log-slopes (zero if left out) whose clear pays
# a zero price.  In the first three a -0.0 top rival bid meets +0.0 offsets.
# In the last two the winner's overflowing slopes make a +0.0 and a -0.0
# inverse piece that tie, in either unit order.
SIGNED_ZERO_CASES = [
    ([0.0, -0.0], [0.5, -0.0]),
    ([0.0, -0.0, -0.0], [0.5, -0.0, -0.0]),
    ([[0.0, 0.0], [-0.0, -0.0]], [0.5, -0.0]),
    ([[0.1, 0.9, 0.6], [0.0, 0.0, 0.0]], [0.8, 0.5], [[800.0, 800.0, 0.0], [0.0, 0.0, 0.0]]),
    ([[0.9, 0.1, 0.6], [0.0, 0.0, 0.0]], [0.8, 0.5], [[800.0, 800.0, 0.0], [0.0, 0.0, 0.0]]),
]


def signed_zero_case(beta, values, theta=None):
    shape = (len(values), 1, -1)
    beta = np.reshape(beta, shape)
    theta = np.zeros_like(beta) if theta is None else np.reshape(theta, shape)
    return MonotoneNetParams(theta, beta), np.array([values])


# A negative bid against an overflowing slope: its -inf transformed bid is
# the top rival, which rectifies to 0, so the row sells at 0.0.
NEGATIVE_INF_RIVAL = (MonotoneNetParams(np.array([[[0.]], [[800.]]]), np.zeros((2, 1, 1))),
                      np.array([[0.5, -0.1]]))


@settings(deadline=None, max_examples=300)
@given(clearing_cases())
@example(NEGATIVE_INF_RIVAL)
def test_clear_batch_matches_clear_hard_bitwise(case):
    assert_clear_batch_matches_rows(*case)


def oracle_clear(params, row):
    """The per-profile reference composition of one row's clear."""
    tb = transform_profile(params, row)
    winner = int(np.argmax(tb))
    if not tb[winner] > 0.0:
        return AuctionOutcome(None, 0.0)
    return AuctionOutcome(winner, payment_soft(params, tb, winner) + 0.0)


def decision(clear, params, row):
    """``(winner, payment bits)`` of one clear, or the message of its InputError."""
    try:
        with np.errstate(all="ignore"):
            out = clear(params, row)
    except InputError as exc:
        return str(exc)
    return out.winner, int(bits(out.payment))


@settings(deadline=None, max_examples=300)
@given(clearing_cases())
@example(signed_zero_case(*SIGNED_ZERO_CASES[0]))
@example(signed_zero_case(*SIGNED_ZERO_CASES[1]))
@example(signed_zero_case(*SIGNED_ZERO_CASES[2]))
@example(signed_zero_case(*SIGNED_ZERO_CASES[3]))
@example(signed_zero_case(*SIGNED_ZERO_CASES[4]))
@example(NEGATIVE_INF_RIVAL)
@example((overflowing_net(), np.array([[0.5, 0.5, 0.1], [0.5, 0.0, 0.0]])))
def test_clear_hard_matches_the_oracle_composition_bitwise(case):
    params, values = case
    for row in values:
        assert decision(clear_hard, params, row) == decision(oracle_clear, params, row)


@pytest.mark.parametrize("case", SIGNED_ZERO_CASES)
def test_a_zero_payment_is_positive_zero(case):
    # Which of two tied zeros a reduction or a scan keeps, and the sign of
    # a -0.0 rival, never reach a clear's payment.
    params, values = signed_zero_case(*case)
    with np.errstate(over="ignore"):
        assert bits(clear_hard(params, values[0]).payment) == bits(0.0)
    assert_clear_batch_matches_rows(params, values)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 6).flatmap(
    lambda n: arrays(np.float64, st.tuples(st.integers(1, 8), st.just(n)),
                     elements=st.one_of(st.sampled_from([0.0, -0.0, 0.5]),
                                        st.floats(0.0, 1.0)))))
def test_spa_batch_matches_spa_clear_bitwise(values):
    assert_spa_batch_matches_rows(values)


def test_batch_clears_return_payments_they_own():
    """A caller keeping only the payments must not keep the ``(S, N)``
    partitioned copy behind them alive."""
    values = np.random.default_rng(3).uniform(0.5, 1.0, (64, 5))
    assert spa_batch(values)[1].flags.owndata
    assert myerson_batch(values, ValuationDistribution())[1].flags.owndata


# The CLI's default support and [0, 1], and two supports ending at zero,
# where a -0.0 runner-up reaches the payment's sign.
MYERSON_SUPPORTS = (ValuationDistribution(), ValuationDistribution(0.0, 1.0),
                    ValuationDistribution(-1.0, 0.0), ValuationDistribution(-1.0, -0.0))


@st.composite
def myerson_cases(draw):
    """A support and a value matrix with endpoint, tied and all-negative-virtual rows."""
    dist = draw(st.sampled_from(MYERSON_SUPPORTS))
    # the endpoints, the zero-virtual-value point and, where the support holds it, -0.0
    points = [dist.lower, dist.upper, dist.upper / 2, *([-0.0] if dist.contains(0.0) else [])]
    values = draw(arrays(np.float64, (draw(st.integers(1, 50)), draw(st.integers(2, 8))),
                         elements=st.one_of(st.sampled_from(points),
                                            st.floats(dist.lower, dist.upper))))
    for row in values:
        kind = draw(st.sampled_from(["free", "tied", "negative"]))
        if kind == "tied":
            row[:] = row[0]
        elif kind == "negative" and dist.lower < dist.upper / 2:  # every virtual value < 0
            below_reserve = st.floats(dist.lower, dist.upper / 2, exclude_max=True)
            row[:] = draw(arrays(np.float64, row.shape, elements=below_reserve))
    return values, dist


@settings(deadline=None, max_examples=200)
@given(myerson_cases())
@example((np.array([[-0.0, -0.0, -0.5]]), MYERSON_SUPPORTS[3]))
def test_myerson_batch_matches_myerson_clear_bitwise(case):
    values, dist = case
    winner, payment = myerson_batch(values, dist)
    outcomes = [myerson_clear(ValuationProfile(row, dist)) for row in values]
    assert winner.shape == payment.shape == (values.shape[0],)
    assert winner.tolist() == [-1 if out.winner is None else out.winner for out in outcomes]
    assert np.array_equal(bits(payment), bits([out.payment for out in outcomes]))
    # and the one-row call clears as the scalar form it replaced
    reference = [myerson_scalar(row, dist) for row in values]
    assert [out.winner for out in outcomes] == [want for want, _ in reference]
    assert np.array_equal(bits(payment), bits([price for _, price in reference]))


def test_myerson_batch_rejects_bad_matrices():
    dist = ValuationDistribution(0.0, 1.0)
    bad = {"1-D": np.full(3, 0.5), "one column": np.full((4, 1), 0.5),
           "empty": np.empty((0, 3)), "nan": np.array([[0.5, 0.2], [0.3, np.nan]])}
    for name, values in bad.items():
        with pytest.raises(InputError) as info:
            myerson_batch(values, dist)
        assert type(info.value) is InputError, name
    with pytest.raises(DomainError):
        myerson_batch(np.array([[0.5, 0.2], [0.3, 1.5]]), dist)


BLOCK_EDGE_ROWS = (1, 1023, 1024, 1025, 2049)


# At the default market's width and at the episode's 200 bidders.
@pytest.mark.parametrize("rows,width", [
    *(pytest.param(rows, 5, id=str(rows)) for rows in BLOCK_EDGE_ROWS),
    *(pytest.param(rows, 200, id=f"{rows}-200") for rows in BLOCK_EDGE_ROWS)])
def test_batch_clears_match_rows_across_block_edges(rows, width):
    rng = np.random.default_rng(rows)
    params = init_params(NetConfig(n_bidders=width), rng)
    values = rng.uniform(0.0, 1.0, (rows, params.n_bidders))
    values[::7, 2] = 0.0
    assert_clear_batch_matches_rows(params, values)
    assert_spa_batch_matches_rows(values)


def test_clear_batch_blocks_shrink_under_the_size_limit(monkeypatch):
    # A block holds at most _SIZE_LIMIT pieces, and at least one row: the default
    # net's 75 pieces a row leave 2 rows a block under a limit of 200, 1 under 10.
    rng = np.random.default_rng(8)
    params = init_params(NetConfig(), rng)
    values = rng.uniform(0.0, 1.0, (7, params.n_bidders))
    values[::3, 1] = 0.0
    whole = clear_batch(params, values)
    for limit, rows in ((200, [2, 2, 2, 1]), (10, [1] * 7)):
        blocks = []

        def second_price(x, inner=network._second_price):
            blocks.append(x.shape[0])
            return inner(x)

        monkeypatch.setattr(network, "_SIZE_LIMIT", limit)
        monkeypatch.setattr(network, "_second_price", second_price)
        winner, payment = clear_batch(params, values)
        monkeypatch.undo()
        assert blocks == rows
        assert winner.tolist() == whole[0].tolist()
        assert np.array_equal(bits(payment), bits(whole[1]))
    assert_clear_batch_matches_rows(params, values)


def test_clear_batch_never_enters_training_forward(monkeypatch):
    # The forward, its piece scans and its rivals are training's; a clear runs
    # clear_hard's kernels only.
    def training_only(*args):
        raise AssertionError("clear_batch entered training's forward")

    for name in ("_forward", "_active_piece", "_top_rival", "_softmax_no_sale"):
        monkeypatch.setattr(network, name, training_only)
    rng = np.random.default_rng(13)
    params = init_params(NetConfig(), rng)
    values = rng.uniform(0.0, 1.0, (2_000, params.n_bidders))
    values[::5, 1] = 0.0
    assert_clear_batch_matches_rows(params, values)


def test_batch_clears_reject_what_row_clears_reject():
    params = MonotoneNetParams.affine(3, 1.0, 0.0)
    good = np.full((4, 3), 0.5)
    bad_rows = {"one bidder": np.full((4, 1), 0.5), "wrong width": np.full((4, 2), 0.5)}
    for name, value in (("nan", np.nan), ("inf", np.inf)):
        bad_rows[name] = good.copy()
        bad_rows[name][2, 1] = value
    for name, values in bad_rows.items():
        with pytest.raises(InputError):
            clear_hard(params, values[2])
        with pytest.raises(InputError):
            clear_batch(params, values)
        if name != "wrong width":
            with pytest.raises(InputError):
                spa_clear(values[2])
            with pytest.raises(InputError):
                spa_batch(values)
    with pytest.raises(InputError):
        clear_batch(MonotoneNetParams.affine(1, 1.0, 0.0), good[:, :1])
    # A batch call takes an (S, N) matrix only; a single row is not a one-row batch.
    for batch_call in (lambda row: clear_batch(params, row), lambda row: loss(params, row, 1.0),
                       lambda row: grad(params, row, 1.0), spa_batch):
        with pytest.raises(InputError):
            batch_call(good[0])
    # Two overflowing transforms: the winner's rival bid is inf, not a price.
    overflowing, tied = overflowing_net(), np.array([[0.5, 0.5, 0.1]])
    with np.errstate(over="ignore"), pytest.raises(InputError, match="transformed bid"):
        clear_hard(overflowing, tied[0])
    with pytest.raises(InputError, match="transformed bid"):
        clear_batch(overflowing, np.vstack([good, tied]))
    negative = good.copy()
    negative[3, 0] = -0.1
    with pytest.raises(InputError):
        spa_clear(negative[3])
    with pytest.raises(InputError):
        spa_batch(negative)


def test_clear_batch_memory_stays_blocked():
    rng = np.random.default_rng(5)
    params = init_params(NetConfig(), rng)
    values = rng.uniform(0.0, 1.0, (20_000, params.n_bidders))
    tracemalloc.start()
    try:
        clear_batch(params, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
