"""The batch forward pass against its argmin/argmax form, bit for bit.

``network._forward`` lays its pieces out ``(J, K, N, S)``, selects the
active piece by reducing the short leading axes and taking the first
piece equal to the reduction, and returns ``(N, S)`` arrays.  The
reference (``oracles.reference_forward``) is the earlier form: pieces
laid out ``(S, N, K, J)``, selected with ``np.argmin``/``np.argmax`` and
``take_along_axis`` over the trailing axes, with the training softmax in
the same pass, all ``(S, N)``.  Every output of the forward, and
training's win probabilities ``g``, must agree with it to the bit, signs
of zero and NaN bits included, on nets full of ties, on ``±0`` bids, and
on a slope that overflows to ``inf`` against a zero bid (a NaN piece,
where argmin and argmax pick the first NaN), from small random shapes up
to the benchmark's default step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import OUTPUTS, reference_forward

from myerson_airnet.network import (MonotoneNetParams, NetConfig, _first_hit, _forward,
                                    allocate_soft, init_params)

# What the forward and training's pass return, each read transposed to (S, N).
COMPARED = ("tbar", "rarg", "rmax", "p", "fwd_cell", "inv_cell", "g")


def assert_forward_matches_reference(params, values, kappa):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, g, forward = _forward(params, values, kappa)
        got = (*forward, g)
        want = dict(zip(OUTPUTS, reference_forward(params, values, kappa)))
    # A cell is the flat index of the active piece's (unit, group, bidder) in the cache.
    bidders = np.broadcast_to(np.arange(params.n_bidders), values.shape)
    for cell, group, unit in (("fwd_cell", "kmax", "jsel_fwd"),
                              ("inv_cell", "kmin_inv", "jsel_inv")):
        want[cell] = np.ravel_multi_index((want[unit], want[group], bidders),
                                          params.theta.shape[::-1])
    for name, a in zip(COMPARED, got, strict=True):
        a, b = a.T, want[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.dtype == np.float64:
            a, b = a.view(np.uint64), b.view(np.uint64)
        assert np.array_equal(a, b), name


signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def nets_and_values(draw):
    """A tie-heavy net, a batch of bids with ``±0`` in it, and a temperature."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    kind = draw(st.sampled_from(["random", "repeated", "zero", "affine"]))
    if kind == "random":
        theta = draw(arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
        beta = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    elif kind == "repeated":
        # Every piece is one of two, so pieces tie within and across groups.
        pick = draw(arrays(np.intp, shape, elements=st.integers(0, 1)))
        theta = draw(arrays(np.float64, 2, elements=st.floats(-1.0, 1.0)))[pick]
        beta = draw(arrays(np.float64, 2, elements=st.floats(-1.0, 1.0)))[pick]
    elif kind == "zero":
        theta = draw(arrays(np.float64, shape, elements=signed_zero))
        beta = draw(arrays(np.float64, shape, elements=signed_zero))
    else:
        theta = np.full(shape, draw(st.floats(-1.0, 1.0)))
        beta = np.full(shape, draw(st.floats(-1.0, 1.0)))

    n_samples = draw(st.integers(1, 8))
    values = draw(arrays(np.float64, (n_samples, shape[0]),
                         elements=st.one_of(signed_zero, st.floats(0.0, 1.0))))
    if draw(st.booleans()):
        # exp(theta) overflows to inf, and inf * 0 is a NaN piece.
        cell = tuple(draw(st.integers(0, side - 1)) for side in shape)
        theta[cell] = draw(st.floats(790.0, 810.0))
        values[0, cell[0]] = draw(signed_zero)
    kappa = draw(st.sampled_from([1.0, 100.0]))
    return MonotoneNetParams(theta, beta, kappa), values, kappa


@settings(deadline=None, max_examples=300)
@given(nets_and_values())
def test_forward_matches_argmin_argmax_reference(case):
    assert_forward_matches_reference(*case)


def test_overflowing_slope_against_zero_bid_matches_reference():
    rng = np.random.default_rng(8)
    theta = rng.normal(0.0, 0.3, (4, 3, 2))
    theta[1, 2, 1] = 800.0  # neither the first group nor the first unit
    params = MonotoneNetParams(theta, rng.uniform(-0.5, 0.0, (4, 3, 2)))
    values = rng.uniform(0.0, 1.0, (6, 4))
    values[::2, 1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        tbar = reference_forward(params, values, params.kappa)[1]
    assert np.isnan(tbar).any()
    assert_forward_matches_reference(params, values, params.kappa)


def test_default_shape_with_planted_ties_zeros_and_nans_matches_reference():
    """The benchmark's step shape: a default ``(5, 5, 3)`` net and ``(768, 5)`` bids."""
    config = NetConfig()
    rng = np.random.default_rng(30)
    theta = rng.normal(0.0, 0.1, (config.n_bidders, config.groups, config.linear_units))
    beta = rng.uniform(-0.5, 0.0, theta.shape)
    values = rng.uniform(0.0, 1.0, (config.batch_size, config.n_bidders))
    # Bidder 0: groups 1 and 3 are equal and lifted, so they tie for the maximum.
    theta[0, 3], beta[0, 3] = theta[0, 1], beta[0, 1]
    beta[0, [1, 3]] += 0.5
    # Bidder 1: units 0 and 2 of every group are equal and lowered, so they tie for the minimum.
    theta[1, :, 2], beta[1, :, 2] = theta[1, :, 0], beta[1, :, 0]
    beta[1, :, [0, 2]] -= 0.5
    # Bidder 2: offsets and every third bid are +0 or -0, so its pieces there are ±0.
    beta[2] = rng.choice([0.0, -0.0], theta.shape[1:])
    # A tie of all of them selects the first piece, and np.minimum and np.maximum
    # return the last, so the two differ in sign wherever the bid is -0.
    beta[2, 0, 0], beta[2, -1, -1] = -0.0, 0.0
    values[::3, 2] = rng.choice([0.0, -0.0], values[::3].shape[0])
    # Bidder 3: exp(800) overflows, and inf * 0 is a NaN piece in group 2, unit 1.
    theta[3, 2, 1] = 800.0
    values[1::4, 3] = 0.0
    params = MonotoneNetParams(theta, beta, config.kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        tbar = reference_forward(params, values, params.kappa)[1]
    assert np.isnan(tbar[:, 3]).any() and np.signbit(tbar[:, 2][tbar[:, 2] == 0.0]).any()
    assert_forward_matches_reference(params, values, params.kappa)


def test_first_hit_is_an_intp_index():
    # The hit scales flat gather indices, which a narrower count could wrap.
    a = np.array([[1.0, np.nan], [0.0, 0.0], [0.0, 2.0]])
    hit = _first_hit(a, np.zeros(2))
    assert hit.dtype == np.intp and hit.tolist() == [1, 0]


def test_allocate_soft_is_one_row_of_the_batch_softmax():
    config = NetConfig()
    rng = np.random.default_rng(12)
    params = init_params(config, rng)
    values = rng.uniform(0.0, 1.0, (config.batch_size, config.n_bidders))
    _, g, (tbar, *_) = _forward(params, values, config.kappa)
    for row in range(config.batch_size):
        assert np.array_equal(allocate_soft(tbar[:, row], config.kappa).view(np.uint64),
                              g[:, row].view(np.uint64))
