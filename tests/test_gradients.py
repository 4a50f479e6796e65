"""Hand-derived gradients against the finite-difference oracle and the row-layout step."""

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import reference_loss_and_grad
from test_forward_oracle import nets_and_values

from myerson_airnet.network import (MonotoneNetParams, NetConfig, _loss_and_grad, grad,
                                    init_params, loss)


def relative_error(got, want):
    scale = max(np.abs(want).max(), 1e-8)
    return np.abs(got - want).max() / scale


def test_gradient_matches_finite_differences(fd_grad, nontie_sampler):
    """Central differences at points away from every selection boundary."""
    rng = np.random.default_rng(101)
    # Eight bidders: the softmax sums 9 terms a sample, past numpy's 8-term
    # blocks for a row sum, where the column sums add in another order.
    shapes = [(2, 1, 1), (3, 2, 2), (5, 5, 3), (2, 3, 1), (4, 1, 4), (8, 2, 2)]
    for trial in range(18):
        shape = shapes[trial % len(shapes)]
        kappa = rng.uniform(2.0, 8.0)
        params, values = nontie_sampler(rng, shape, kappa)
        dtheta, dbeta = grad(params, values, kappa)
        fd_theta, fd_beta = fd_grad(params, values, kappa)
        assert relative_error(dtheta, fd_theta) < 1e-4
        assert relative_error(dbeta, fd_beta) < 1e-4


def test_gradient_zero_at_saturated_no_sale():
    """Deep no-sale region: the loss is flat at 0, the gradient exactly 0.

    With both transformed bids far below the no-sale slot and kappa
    large, the bidder softmax terms underflow to exact zeros, so no
    parameter sees any gradient.
    """
    params = MonotoneNetParams.affine(2, 1.0, -2.0, kappa=1000.0)
    batch = np.array([[0.8, 0.6], [0.3, 0.9], [0.5, 0.5]])
    assert loss(params, batch, 1000.0) == 0.0
    dtheta, dbeta = grad(params, batch, 1000.0)
    assert not dtheta.any()
    assert not dbeta.any()


def test_inactive_unit_gets_zero_gradient():
    """A piece never selected by min (forward) or max (inverse) stays untouched."""
    # unit 1 (offset -10) always wins the forward min and the inverse max
    theta = np.zeros((2, 1, 2))
    beta = np.array([[[0.0, -10.0]], [[0.0, -10.0]]])
    params = MonotoneNetParams(theta, beta, 5.0)
    rng = np.random.default_rng(103)
    batch = rng.uniform(0.0, 1.0, (32, 2))
    dtheta, dbeta = grad(params, batch, 5.0)
    assert not dtheta[:, :, 0].any()
    assert not dbeta[:, :, 0].any()
    assert dbeta[:, :, 1].any()


def test_gradient_deterministic_and_shaped():
    rng = np.random.default_rng(107)
    params = MonotoneNetParams(rng.normal(0.0, 0.5, (3, 2, 2)),
                               rng.normal(0.0, 0.5, (3, 2, 2)), 10.0)
    batch = rng.uniform(0.0, 1.0, (16, 3))
    first = grad(params, batch, 10.0)
    second = grad(params, batch, 10.0)
    assert first[0].shape == params.theta.shape
    assert first[1].shape == params.beta.shape
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("net", ["init", "affine"])
def test_public_loss_and_grad_are_the_training_step_bitwise(net):
    """``loss`` and ``grad`` compute exactly what each training step does."""
    rng = np.random.default_rng(17)
    config = NetConfig()
    if net == "init":
        params = init_params(config, rng)
        values = rng.uniform(0.0, 1.0, (config.batch_size, config.n_bidders))
    else:
        # One shared piece and bids on a coarse grid: transformed bids tie often.
        params = MonotoneNetParams.affine(config.n_bidders, 1.5, -0.3, kappa=20.0)
        values = rng.integers(0, 4, (config.batch_size, config.n_bidders)) / 4.0
    step_loss, step_dtheta, step_dbeta = _loss_and_grad(params, values, params.kappa)
    dtheta, dbeta = grad(params, values, params.kappa)
    assert bits(loss(params, values, params.kappa)) == bits(step_loss)
    assert np.array_equal(bits(dtheta), bits(step_dtheta))
    assert np.array_equal(bits(dbeta), bits(step_dbeta))


@settings(deadline=None, max_examples=300)
@given(nets_and_values())
def test_loss_and_grad_match_the_row_layout_reference_bitwise(case):
    """The ``(N, S)`` training step equals the ``(S, N)`` one bit for bit.

    At 2 to 6 bidders a row sum over bidders adds in the order a column sum
    does, so ties and ``±0`` bids must give the reference's loss and
    gradient bits, signs of zero included.  An overflowing slope makes NaNs,
    and those must sit in the same entries; their sign bits are not
    compared.  numpy's SIMD loops take a NaN times (or plus) a NaN of the
    other sign from one operand and their scalar remainder loops from the
    other, so the sign follows an entry's place in memory, not its values.
    """
    params, values, kappa = case
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        want = reference_loss_and_grad(params, values, kappa)
    got = _loss_and_grad(params, values, kappa)
    for name, a, b in zip(("loss", "dtheta", "dbeta"), got, want, strict=True):
        assert np.array_equal(np.isnan(a), np.isnan(b)), name
        assert np.array_equal(bits(np.where(np.isnan(a), np.nan, a)),
                              bits(np.where(np.isnan(b), np.nan, b))), name
