"""The batch forward pass against its argmin/argmax form, bit for bit.

``network._forward`` lays its pieces out ``(J, K, N, S)`` and selects the
active piece by scanning the short leading axes.  The reference below is
the earlier form: pieces laid out ``(S, N, K, J)``, selected with
``np.argmin``/``np.argmax`` and ``take_along_axis`` over the trailing
axes, with the training softmax in the same pass.  Every output of the
forward, and training's win probabilities ``g``, must agree with it to
the bit, sign of zero and NaN positions included, on nets full of ties,
on ``±0`` bids, and on a slope that overflows to ``inf`` against a zero
bid (a NaN piece, where argmin and argmax pick the first NaN).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import masked_rivals

from myerson_airnet.network import (MonotoneNetParams, NetConfig, _forward, _train_forward,
                                    allocate_soft, init_params)

OUTPUTS = ("w", "tbar", "kmax", "jsel_fwd", "soft", "g", "rarg", "rmax", "p", "kmin_inv",
           "jsel_inv")
# What the forward and training's pass return; the index pairs are (N, S).
COMPARED = ("tbar", "rarg", "rmax", "p", "kmax", "jsel_fwd", "kmin_inv", "jsel_inv", "g")


def _select(pieces, inner, outer):
    """Active piece of ``(S, N, K, J)`` pieces: its ``(S, N)`` value, group and unit."""
    unit = inner(pieces, axis=3)
    over_units = np.take_along_axis(pieces, unit[..., None], axis=3)[..., 0]
    group = outer(over_units, axis=2)
    value = np.take_along_axis(over_units, group[..., None], axis=2)[..., 0]
    return value, group, np.take_along_axis(unit, group[..., None], axis=2)[..., 0]


def reference_forward(params, values, kappa):
    """The forward pass with trailing-axis argmin/argmax selections."""
    w = np.exp(params.theta)
    beta = params.beta
    n_samples = values.shape[0]

    pieces = np.exp(params.theta) * values[:, :, None, None] + beta
    tbar, kmax, jsel_fwd = _select(pieces, np.argmin, np.argmax)

    z = kappa * np.concatenate([tbar, np.zeros((n_samples, 1))], axis=1)
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    soft = ez / ez.sum(axis=1, keepdims=True)
    g = soft[:, :-1]

    rivals = masked_rivals(tbar)
    rarg = rivals.argmax(axis=2)
    rmax = np.take_along_axis(rivals, rarg[..., None], axis=2)[..., 0]
    r = np.maximum(rmax, 0.0)

    inv_pieces = (r[:, :, None, None] - beta[None]) * np.exp(-params.theta)
    p, kmin_inv, jsel_inv = _select(inv_pieces, np.argmax, np.argmin)

    return w, tbar, kmax, jsel_fwd, soft, g, rarg, rmax, p, kmin_inv, jsel_inv


def assert_forward_matches_reference(params, values, kappa):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tbar, rarg, rmax, p, fwd_piece, inv_piece = _forward(params, values)
        want = dict(zip(OUTPUTS, reference_forward(params, values, kappa)))
    got = (tbar, rarg, rmax, p, *(index.T for index in fwd_piece + inv_piece),
           _train_forward(params, values, kappa)[1])
    for name, a in zip(COMPARED, got, strict=True):
        b = want[name]
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


def test_allocate_soft_is_one_row_of_the_batch_softmax():
    config = NetConfig()
    rng = np.random.default_rng(12)
    params = init_params(config, rng)
    values = rng.uniform(0.0, 1.0, (config.batch_size, config.n_bidders))
    _, g, (tbar, *_) = _train_forward(params, values, config.kappa)
    for row in range(config.batch_size):
        assert np.array_equal(allocate_soft(tbar[row], config.kappa).view(np.uint64),
                              g[row].view(np.uint64))
