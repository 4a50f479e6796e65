"""Monotone transform network: forward, inverse, allocation, payment, loss."""

import copy
import dataclasses
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import masked_rivals, payment_soft, transform_profile
from test_batch_properties import bits

from myerson_airnet.auction import (ValuationDistribution, ValuationProfile, myerson_batch,
                                    myerson_clear, spa_batch, spa_clear, virtual_valuation,
                                    virtual_valuation_inverse)
from myerson_airnet.checkpoint import load_params
from myerson_airnet.config import ExperimentConfig
from myerson_airnet.errors import InputError
from myerson_airnet.network import (MonotoneNetParams, NetConfig, _forward, allocate_soft,
                                    clear_batch, clear_hard, grad, init_params, loss, train,
                                    transform, transform_inverse)
from myerson_airnet.sim import WorldConfig, WorldState
from myerson_airnet.valuation import normalize_profile, pile_similarity, pile_terms, valuation_score


def identity_params(n):
    return MonotoneNetParams.affine(n, 1.0, 0.0)


def tiny_world(**arrays):
    arrays = {"positions": np.zeros((2, 2)), "piles": np.zeros((2, 1, 1, 1)),
              "last_collected": np.zeros((1, 1, 1)), **arrays}
    return WorldState(WorldConfig(n_devices=2, image_rows=1, image_cols=1, pile_size=1), **arrays)


def random_params(rng, n, k, j, kappa=100.0):
    return MonotoneNetParams(rng.normal(0.0, 0.5, (n, k, j)),
                             rng.normal(0.0, 0.5, (n, k, j)), kappa)


def test_params_validation():
    with pytest.raises(InputError):
        MonotoneNetParams(np.zeros((2, 1)), np.zeros((2, 1)))  # not 3-D
    with pytest.raises(InputError):
        MonotoneNetParams(np.zeros((2, 1, 1)), np.zeros((2, 2, 1)))  # shape mismatch
    with pytest.raises(InputError):
        MonotoneNetParams(np.full((2, 1, 1), np.nan), np.zeros((2, 1, 1)))
    with pytest.raises(InputError):
        MonotoneNetParams(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), kappa=0.0)

    params = MonotoneNetParams(np.zeros((3, 2, 4)), np.zeros((3, 2, 4)), 50.0)
    assert (params.n_bidders, params.groups, params.linear_units) == (3, 2, 4)
    assert np.all(params.weights() == 1.0)


def test_affine_constructor():
    params = MonotoneNetParams.affine(3, 2.0, -1.0)
    assert params.theta.shape == (3, 1, 1)
    assert np.allclose(params.weights(), 2.0)
    assert np.all(params.beta == -1.0)
    with pytest.raises(InputError):
        MonotoneNetParams.affine(3, 0.0, 0.0)
    with pytest.raises(InputError, match="n_bidders"):
        MonotoneNetParams.affine(-1, 1.0, 0.0)  # raised numpy's ValueError from np.full


def test_params_are_immutable():
    theta = np.full((2, 1, 1), np.log(2.0))
    params = MonotoneNetParams(theta, np.full((2, 1, 1), -1.0))
    theta[0, 0, 0] = 5.0  # the parameter set holds a copy
    assert params.theta[0, 0, 0] == np.log(2.0)
    for array in (params.theta, params.beta, params.weights()):
        for stored in (array, array.base):  # a view's base refuses writes too
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0, 0] = 0.0
    for name in ("theta", "beta"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, name, np.zeros((2, 1, 1)))
    # Equality is identity: numpy's ambiguous truth value is never asked for.
    assert params == params
    assert params != MonotoneNetParams(params.theta, params.beta, params.kappa)
    # A copy or an unpickled set is rebuilt, read-only, with its slopes.
    for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        for name in ("theta", "beta", "_w", "_w_inv", "_beta"):
            assert not getattr(twin, name).flags.writeable
            assert np.array_equal(getattr(twin, name), getattr(params, name))
        assert twin.kappa == params.kappa


def _slope_nets():
    overflowing = np.zeros((3, 2, 2))
    overflowing[0, 1, 0] = 800.0  # exp(theta) overflows to inf, exp(-theta) to 0
    return {"affine": lambda: MonotoneNetParams.affine(3, 2.0, -1.0),
            "loaded": lambda: load_params(Path(__file__).parent / "data" / "golden_net.ckpt"),
            # train builds a parameter set per step; one updated in place keeps stale slopes
            "trained": lambda: train(NetConfig(n_bidders=3, groups=2, linear_units=2,
                                               iterations=20, batch_size=64),
                                     ValuationDistribution(0.0, 1.0))[0],
            "overflowing": lambda: MonotoneNetParams(overflowing, np.zeros_like(overflowing))}


@pytest.mark.parametrize("net", sorted(_slope_nets()))
def test_cached_slopes_are_the_exponentials_of_theta_bitwise(net):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # not even an overflowing slope may warn
        params = _slope_nets()[net]()
    n, k, j = params.theta.shape
    for cached in (params._w, params._w_inv, params._beta):
        assert cached.shape == (j, k, n) and cached.flags.c_contiguous
        assert not cached.flags.writeable
    with np.errstate(over="ignore"):
        assert np.array_equal(bits(params.weights()), bits(np.exp(params.theta)))
        assert np.array_equal(bits(params._w_inv.T), bits(np.exp(-params.theta)))
    assert np.array_equal(bits(params._beta.T), bits(params.beta))


def test_netconfig_validation():
    cfg = NetConfig()
    assert cfg.n_bidders == 5 and cfg.groups == 5 and cfg.linear_units == 3
    for bad in (dict(n_bidders=1), dict(groups=0), dict(kappa=-1.0),
                dict(learning_rate=0.0), dict(batch_size=0), dict(iterations=0),
                dict(seed=-1), dict(convergence_tol=-0.1)):
        with pytest.raises(InputError):
            NetConfig(**bad)


def test_transform_examples():
    ident = identity_params(2)
    assert transform(ident, 0, 0.7) == 0.7

    # K=1, J=2: min of (b, b - 0.2)
    params = MonotoneNetParams(np.zeros((1, 1, 2)), np.array([[[0.0, -0.2]]]), 10.0)
    assert transform(params, 0, 0.5) == 0.3

    with pytest.raises(InputError):
        transform(ident, 5, 0.1)
    with pytest.raises(InputError):
        transform(ident, 0, float("nan"))
    assert transform(ident, np.int64(1), 0.7) == 0.7


@pytest.mark.parametrize("bidder", [1.5, "1", None, np.float64(1.0)])
@pytest.mark.parametrize("call", [transform, transform_inverse])
def test_a_non_integer_bidder_is_refused(call, bidder):
    # 1.5 raised numpy's IndexError and "1" its TypeError.
    with pytest.raises(InputError, match="bidder index must be an integer"):
        call(identity_params(2), bidder, 0.3)


def object_array(*items):
    """A 1-D object array holding each item as it is, an array included."""
    held = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        held[i] = item
    return held


NON_NUMERIC_CALLS = {
    "transform": lambda params: transform(params, 0, "x"),
    "transform_inverse": lambda params: transform_inverse(params, 0, None),
    "clear_hard": lambda params: clear_hard(params, ["x", 1]),
    "clear_batch": lambda params: clear_batch(params, [["x", 1]]),
    "loss": lambda params: loss(params, [["x", 1]], 1.0),
    "allocate_soft": lambda params: allocate_soft(["x"], 1.0),
    "affine": lambda params: MonotoneNetParams.affine(2, "x", 0.0),
    "dist_lower": lambda params: ValuationDistribution(lower="x"),
    "dist_upper": lambda params: ValuationDistribution(upper=None),
    "net_config": lambda params: NetConfig(learning_rate="x"),
    "world_config": lambda params: WorldConfig(uav_x=None),
    "valuation_score": lambda params: valuation_score("x", 1.0),
    "normalize_profile": lambda params: normalize_profile(["x", 1.0], ValuationDistribution()),
    "pile_similarity": lambda params: pile_similarity([[[["x"]]]], np.zeros((1, 1, 1))),
    "pile_terms": lambda params: pile_terms([[[["x"]]]]),
    "replace_pile": lambda params: tiny_world().replace_pile(0, [[["x"]]]),
    "virtual_valuation_inverse": lambda params: virtual_valuation_inverse(
        "x", ValuationDistribution()),
    # Text that reads as a number, which float() and astype(float) would parse.
    "spa_clear_text": lambda params: spa_clear(["0.9", "0.7"]),
    "clear_hard_text": lambda params: clear_hard(params, ["0.9", "0.7"]),
    "transform_text": lambda params: transform(params, 0, "0.5"),
    "virtual_valuation_text": lambda params: virtual_valuation(
        "0.7", ValuationDistribution(0.0, 1.0)),
    "theta_text": lambda params: MonotoneNetParams(params.theta.astype(str), params.beta),
    "net_config_text": lambda params: NetConfig(learning_rate="0.5"),
    "world_config_text": lambda params: WorldConfig(uav_x="5"),
    "dist_text": lambda params: ValuationDistribution("0", "1"),
    # Text inside an object array, which float() and astype(float) parse element by element.
    "spa_clear_object_text": lambda params: spa_clear(np.array(["0.9", "0.7"], dtype=object)),
    "clear_hard_object_text": lambda params: clear_hard(
        params, np.array(["0.9", "0.7"], dtype=object)),
    "clear_batch_object_bytes": lambda params: clear_batch(
        params, np.array([[0.9, b"0.7"]], dtype=object)),
    "transform_object_text": lambda params: transform(params, 0, np.array("0.5", dtype=object)),
    "spa_clear_object_array_text": lambda params: spa_clear(object_array(np.array("0.9"), 0.7)),
    "world_config_object_text": lambda params: WorldConfig(uav_x=np.array("5", dtype=object)),
}


@pytest.mark.parametrize("call", sorted(NON_NUMERIC_CALLS))
def test_non_numeric_input_is_refused(call):
    # Each raised Python's ValueError or TypeError.
    with pytest.raises(InputError, match="must be (a number|numbers)"):
        NON_NUMERIC_CALLS[call](identity_params(2))


def test_object_arrays_of_numbers_are_read():
    params = identity_params(2)
    for bids in ([0.9, 0.7], [np.float32(0.5), 1]):
        held = np.array(bids, dtype=object)
        assert spa_clear(held) == spa_clear(np.array(bids, dtype=float))
        assert clear_hard(params, held) == clear_hard(params, np.array(bids, dtype=float))
    assert transform(params, 0, np.array(0.5, dtype=object)) == transform(params, 0, 0.5)


INTEGER_KEYS = ("n_bidders", "groups", "linear_units", "batch_size", "iterations", "seed")
WORLD_INTEGER_KEYS = ("n_devices", "image_rows", "image_cols", "pile_size", "seed", "max_rounds")


@pytest.mark.parametrize("value", [2.5, np.float64(3.0), "3", None, True])
@pytest.mark.parametrize("key, build", [
    *(pytest.param(key, lambda value, key=key: NetConfig(**{key: value}), id=key)
      for key in INTEGER_KEYS),
    *(pytest.param(key, lambda value, key=key: WorldConfig(**{key: value}), id=f"world_{key}")
      for key in WORLD_INTEGER_KEYS),
    pytest.param("n_bidders", lambda value: MonotoneNetParams.affine(value, 1.0, 0.0),
                 id="affine"),
    pytest.param("cases", lambda value: ExperimentConfig(NetConfig(), WorldConfig(), cases=value),
                 id="cases"),
])
def test_integer_fields_refuse_non_integers(key, build, value):
    with pytest.raises(InputError, match=f"{key} must be an integer"):
        build(value)


def test_integer_fields_take_any_integer_type():
    config = NetConfig(**{key: np.int64(getattr(NetConfig(), key) + 1) for key in INTEGER_KEYS})
    for key in INTEGER_KEYS:
        assert type(getattr(config, key)) is int
    assert MonotoneNetParams.affine(np.uint8(3), 1.0, 0.0).theta.shape == (3, 1, 1)


COMPLEX_CALLS = {
    "transform": lambda params: transform(params, 0, np.complex128(0.5)),
    "transform_0d": lambda params: transform(params, 0, np.array(0.5 + 0j)),
    "transform_inverse": lambda params: transform_inverse(params, 0, np.complex64(0.5)),
    "clear_hard": lambda params: clear_hard(params, np.array([0.5, 0.5 + 0j])),
    "clear_batch": lambda params: clear_batch(params, np.array([[0.5, 0.5 + 0j]])),
    "loss": lambda params: loss(params, [[0.5, np.complex128(0.5)]], 1.0),
    "allocate_soft": lambda params: allocate_soft(np.array([0.5 + 0j]), 1.0),
    "spa_clear": lambda params: spa_clear([0.5, np.complex128(0.4 + 1j)]),
    "spa_batch": lambda params: spa_batch(np.array([[0.5, 0.4 + 1j]])),
    "myerson_batch": lambda params: myerson_batch(np.array([[0.5, 0.4 + 1j]]),
                                                  ValuationDistribution()),
    "profile": lambda params: ValuationProfile(np.array([0.5, 0.4 + 1j]),
                                               ValuationDistribution()),
    "dist_lower": lambda params: ValuationDistribution(lower=0.5 + 0j),
    "dist_upper": lambda params: ValuationDistribution(upper=np.complex128(1.0)),
    "net_config": lambda params: NetConfig(learning_rate=0.35 + 0j),
    "world_config": lambda params: WorldConfig(uav_x=500.0 + 1j),
    "valuation_score": lambda params: valuation_score(np.array([0.5 + 1j]), 1.0),
    "normalize_profile": lambda params: normalize_profile(np.array([0.5, 1.0 + 1j]),
                                                          ValuationDistribution()),
    "pile_similarity": lambda params: pile_similarity(np.zeros((1, 1, 1, 1), complex),
                                                      np.zeros((1, 1, 1))),
    "pile_terms": lambda params: pile_terms(np.zeros((1, 1, 1, 1), complex)),
    "world_state": lambda params: tiny_world(positions=np.zeros((2, 2), complex)),
    "replace_pile": lambda params: tiny_world().replace_pile(0, np.zeros((1, 1, 1), complex)),
    "virtual_valuation_inverse": lambda params: virtual_valuation_inverse(
        np.complex128(0.75), ValuationDistribution()),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", sorted(COMPLEX_CALLS))
def test_complex_input_is_refused_not_cast_to_its_real_part(call):
    with pytest.raises(InputError, match="must be (a )?real number"):
        COMPLEX_CALLS[call](identity_params(2))


def test_transform_strictly_increasing():
    rng = np.random.default_rng(31)
    for _ in range(200):
        params = random_params(rng, 2, 3, 2)
        b1, b2 = np.sort(rng.uniform(-5.0, 5.0, 2))
        if b1 == b2:
            continue
        assert transform(params, 0, b1) < transform(params, 0, b2)


def test_transform_inverse_examples():
    assert transform_inverse(identity_params(2), 0, 0.7) == 0.7
    shaped = MonotoneNetParams.affine(2, 2.0, -1.0)
    assert transform_inverse(shaped, 0, 0.2) == pytest.approx(0.6, abs=1e-12)


def test_transform_inverse_roundtrip():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        params = random_params(rng, 1, 2, 3)
        b = rng.uniform(-10.0, 10.0)
        assert abs(transform_inverse(params, 0, transform(params, 0, b)) - b) < 1e-9


def test_transform_profile_matches_scalar():
    rng = np.random.default_rng(41)
    params = random_params(rng, 4, 3, 2)
    bids = rng.uniform(0.0, 1.0, 4)
    batch = transform_profile(params, bids)
    for i in range(4):
        assert batch[i] == transform(params, i, bids[i])
    with pytest.raises(InputError):
        transform_profile(params, bids[:3])


def test_allocate_soft_examples():
    probs = allocate_soft([0.0, 0.0], 1.0)
    assert probs == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-12)

    saturated = allocate_soft([10.0, 0.0], 10.0)
    assert saturated[0] > 0.999

    rng = np.random.default_rng(43)
    for _ in range(200):
        tb = rng.normal(0.0, 3.0, rng.integers(1, 6))
        probs = allocate_soft(tb, 5.0)
        assert probs.sum() <= 1.0 + 1e-12  # the rest belongs to the no-sale slot
        # a dominant bid may saturate its share to exactly 1.0 in floats
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    with pytest.raises(InputError):
        allocate_soft([], 1.0)
    with pytest.raises(InputError):
        allocate_soft([0.1, 0.2], 0.0)


def test_payment_soft_examples():
    ident = identity_params(2)
    assert payment_soft(ident, [0.8, 0.6], 0) == 0.6
    # negative rival transformed bid is rectified to the zero reserve
    assert payment_soft(ident, [0.8, -0.3], 0) == transform_inverse(ident, 0, 0.0)
    assert payment_soft(ident, [0.8, -0.3], 0) == 0.0


def test_payment_soft_matches_analytic_myerson():
    """w=2, b-1 per bidder is exactly the uniform[0,1] optimal transform."""
    u01 = ValuationDistribution(0.0, 1.0)
    shaped = MonotoneNetParams.affine(3, 2.0, -1.0)
    rng = np.random.default_rng(47)
    for _ in range(1000):
        values = rng.uniform(0.0, 1.0, 3)
        oracle = myerson_clear(ValuationProfile(values, u01))
        if not oracle.sold:
            continue
        tb = transform_profile(shaped, values)
        assert abs(payment_soft(shaped, tb, oracle.winner) - oracle.payment) < 1e-9


def test_clear_hard_examples():
    out = clear_hard(identity_params(2), [0.9, 0.4])
    assert out.winner == 0
    assert out.payment == 0.4

    # every transformed bid non-positive: the item is withheld
    unsold = clear_hard(MonotoneNetParams.affine(3, 1.0, -2.0), [0.9, 0.4, 0.7])
    assert unsold.winner is None
    assert unsold.payment == 0.0


def test_clear_hard_individual_rationality_random_params():
    rng = np.random.default_rng(53)
    for _ in range(500):
        params = random_params(rng, 4, 2, 2)
        values = rng.uniform(0.0, 1.0, 4)
        out = clear_hard(params, values)
        if out.sold:
            assert out.payment <= values[out.winner] + 1e-9


def test_allocation_argmax_matches_hard_winner_at_high_kappa():
    """kappa 1e3 saturates the softmax onto the deterministic winner."""
    rng = np.random.default_rng(59)
    params = identity_params(5)
    for _ in range(300):
        values = rng.uniform(0.05, 1.0, 5)
        tb = transform_profile(params, values)
        out = clear_hard(params, values)
        assert out.sold
        assert int(np.argmax(allocate_soft(tb, 1e3))) == out.winner


def test_loss_single_sample_example():
    """Identity transforms, values (0.8, 0.6): the winner pays 0.6."""
    params = MonotoneNetParams.affine(2, 1.0, 0.0, kappa=1000.0)
    value = loss(params, np.array([[0.8, 0.6]]), 1000.0)
    assert value == pytest.approx(-0.6, abs=1e-9)


def test_loss_zero_valuation_batch_clamps_payments():
    """All-zero bids leave every conditional payment at the learned reserve."""
    rng = np.random.default_rng(61)
    params = init_params(NetConfig(n_bidders=3, groups=2, linear_units=2), rng)
    zeros = np.zeros((1, 3))
    tb = transform_profile(params, zeros[0])
    assert np.all(tb < 0.0)  # negative offsets at init
    for i in range(3):
        assert payment_soft(params, tb, i) == transform_inverse(params, i, 0.0)


def test_loss_matches_manual_composition():
    """The batch loss is literally mean of -sum(g * p) over the samples."""
    rng = np.random.default_rng(67)
    params = random_params(rng, 3, 2, 2, kappa=7.0)
    batch = rng.uniform(0.0, 1.0, (16, 3))
    expected = 0.0
    for values in batch:
        tb = transform_profile(params, values)
        g = allocate_soft(tb, 7.0)
        p = np.array([payment_soft(params, tb, i) for i in range(3)])
        expected += -(g * p).sum()
    expected /= len(batch)
    assert loss(params, batch, 7.0) == pytest.approx(expected, abs=1e-12)


def test_loss_accepts_profiles_and_requires_batch():
    u01 = ValuationDistribution(0.0, 1.0)
    params = identity_params(2)
    profiles = [ValuationProfile([0.8, 0.6], u01), ValuationProfile([0.4, 0.9], u01)]
    as_profiles = loss(params, [profile.values for profile in profiles], 100.0)
    as_array = loss(params, np.array([[0.8, 0.6], [0.4, 0.9]]), 100.0)
    assert as_profiles == as_array
    with pytest.raises(InputError):
        loss(params, [], 100.0)
    with pytest.raises(InputError):
        loss(params, np.zeros((2, 3)), 100.0)  # bidder count mismatch


@pytest.mark.parametrize("kappa", [np.nan, np.inf, 0.0, -1.0, "x"])
@pytest.mark.parametrize("call", ["loss", "grad", "allocate_soft"])
def test_public_calls_reject_a_bad_kappa(call, kappa):
    # A NaN temperature gave a NaN loss and -1.0 the loss of another objective.
    params = identity_params(2)
    batch = np.array([[0.8, 0.6], [0.4, 0.9]])
    calls = {"loss": lambda: loss(params, batch, kappa),
             "grad": lambda: grad(params, batch, kappa),
             "allocate_soft": lambda: allocate_soft([0.8, 0.6], kappa)}
    with pytest.raises(InputError, match="kappa"):
        calls[call]()


def test_loss_bounded_by_top_valuation_symmetric_params():
    """Revenue cannot exceed the best value when bidders share one transform.

    Holds whenever the top bid clears the shared reserve, so offsets and
    the batch are drawn to keep the reserve below the support.
    """
    rng = np.random.default_rng(71)
    for _ in range(100):
        theta = np.repeat(rng.uniform(-0.3, 0.3, (1, 2, 2)), 4, axis=0)
        beta = np.repeat(rng.uniform(-0.2, 0.0, (1, 2, 2)), 4, axis=0)
        params = MonotoneNetParams(theta, beta, 20.0)
        batch = rng.uniform(0.5, 1.0, (8, 4))
        assert loss(params, batch, 20.0) >= -batch.max() - 1e-9


def test_forward_rival_matches_masked_argmax_with_ties():
    # Equal bids under an affine net tie every transformed bid; the mixed
    # rows tie the top two, the bottom two, or none.
    values = np.array([[0.6, 0.6, 0.6, 0.6],
                       [0.9, 0.9, 0.2, 0.1],
                       [0.3, 0.8, 0.8, 0.8],
                       [0.2, 0.5, 0.2, 0.9],
                       [0.0, 0.0, 0.0, 0.0],
                       [0.7, 0.1, 0.4, 0.3]])
    params = MonotoneNetParams.affine(4, 1.5, -0.3)
    tbar, rarg, rmax = (a.T for a in _forward(params, values, params.kappa)[2][:3])

    rivals = masked_rivals(tbar)
    expected_arg = rivals.argmax(axis=2)
    assert np.array_equal(rarg, expected_arg)
    assert np.array_equal(rmax, np.take_along_axis(rivals, expected_arg[..., None], axis=2)[..., 0])
    assert np.array_equal(rarg[0], [1, 0, 0, 0])
