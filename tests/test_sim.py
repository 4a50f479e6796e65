"""World generation, valuation formation, round stepping, episode logs."""

import copy
import csv
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import capture_pile_meshgrid, noise_sample_2d_index, pile_similarity_per_image
from test_batch_properties import U, gamma, similarity_rounding_bound

from myerson_airnet import sim, valuation
from myerson_airnet.auction import _TAGS, AuctionOutcome, ValuationDistribution, _stream, spa_clear
from myerson_airnet.errors import DegenerateProfileError, EpisodeExhaustedError, InputError
from myerson_airnet.checkpoint import save_params
from myerson_airnet.cli import main
from myerson_airnet.network import MonotoneNetParams, NetConfig, init_params
from myerson_airnet.sim import (EPISODE_CSV_COLUMNS, LearnedMechanism, RoundRecord,
                                SecondPriceMechanism, WorldConfig, WorldState, form_valuations,
                                generate_world, run_episode, step, write_episode_csv,
                                write_episode_events)
from myerson_airnet.valuation import (distance, normalize_profile, pile_similarity, pile_terms,
                                      valuation_score)


def small_config(**overrides):
    base = dict(n_devices=3, area_width=400.0, area_height=400.0, image_rows=4,
                image_cols=4, pile_size=2, battery=2500.0, uav_x=200.0, uav_y=200.0,
                seed=11, max_rounds=8)
    base.update(overrides)
    return WorldConfig(**base)


def test_world_config_validation():
    with pytest.raises(InputError):
        small_config(n_devices=1)
    with pytest.raises(InputError):
        small_config(battery=-5.0)
    with pytest.raises(InputError):
        small_config(battery=float("nan"))
    with pytest.raises(InputError):
        small_config(seed=-1)
    with pytest.raises(InputError):
        small_config(area_width=0.0)
    for key in ("area_width", "area_height", "uav_x", "uav_y"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputError, match=key):
                small_config(**{key: value})
    with pytest.raises(InputError):
        small_config(pile_size=0)
    # 2**25 pixels is the most a world may hold; a config alone allocates none of them.
    small_config(n_devices=2, pile_size=1, image_rows=2**12, image_cols=2**12)
    with pytest.raises(InputError, match=r"n_devices \* pile_size \* image_rows \* image_cols"):
        small_config(n_devices=2, pile_size=1, image_rows=2**12, image_cols=2**12 + 1)
    with pytest.raises(InputError):
        small_config(similarity_aggregate="max")
    with pytest.raises(InputError):
        small_config(valuation_rule="sum")
    with pytest.raises(InputError):
        small_config(max_rounds=0)
    with pytest.raises(InputError):
        small_config(distribution=ValuationDistribution(-0.5, 1.0))
    # an unlimited battery is refused, since --events would write it as Infinity, not JSON
    for value in (float("inf"), float("-inf")):
        with pytest.raises(InputError, match="battery"):
            small_config(battery=value)


@pytest.mark.parametrize("key, sign", [
    ("area_width", 1.0), ("area_height", 1.0), ("uav_x", -1.0), ("uav_y", 1.0),
])
def test_world_coordinates_stop_at_the_noise_cell_index_limit(key, sign):
    limit = sign * sim._COORD_LIMIT
    # at the limit the noise field's cell index still casts to an int64 (a bad cast
    # warns, and the suite fails on warnings); one ulp past it is refused
    assert generate_world(small_config(**{key: limit})).piles.shape == (3, 2, 4, 4)
    with pytest.raises(InputError, match=f"^{key} must be finite and at most"):
        small_config(**{key: np.nextafter(limit, sign * np.inf)})


def test_generate_world_is_deterministic():
    a = generate_world(small_config())
    b = generate_world(small_config())
    assert a.uav_position == b.uav_position
    assert a.battery == b.battery
    assert np.array_equal(a.last_collected, b.last_collected)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.piles, b.piles)

    other = generate_world(small_config(seed=12))
    assert not np.array_equal(a.positions, other.positions)


def test_generate_world_geometry():
    config = small_config(n_devices=6, image_rows=5, image_cols=7, pile_size=3)
    state = generate_world(config)
    assert state.positions.shape == (6, 2)
    assert state.uav_position == (config.uav_x, config.uav_y)
    assert state.battery == config.battery
    assert state.round == 0
    for x, y in state.positions:
        assert 0.0 <= x <= config.area_width
        assert 0.0 <= y <= config.area_height
    assert state.piles.shape == (6, 3, 5, 7)
    assert state.last_collected.shape == (3, 5, 7)
    assert np.all((state.piles >= 0.0) & (state.piles <= 1.0))


def hand_world(positions, piles, last_collected, **overrides):
    config = small_config(**{"n_devices": len(positions), "image_rows": 1, "image_cols": 2,
                             "pile_size": 1, "uav_x": 0.0, "uav_y": 0.0, "battery": 1000.0,
                             **overrides})
    return WorldState(config=config, positions=positions, piles=piles,
                      last_collected=last_collected)


def three_device_world(**overrides):
    """Hand-checkable market: raw scores 5.0, 2.5, and 1.75."""
    positions = ((3.0, 4.0), (0.0, 5.0), (7.0, 0.0))
    piles = [np.ones((1, 1, 2)), np.array([[[1.0, 0.0]]]), np.full((1, 1, 2), 0.5)]
    return hand_world(positions, piles, np.zeros((1, 1, 2)), **overrides)


def held_bits(state):
    """The bits of every array the state holds, its terms included."""
    return [bits(array) for array in (state.positions, state.piles, state.last_collected,
                                      *state.terms, *state.reference_terms)]


def test_world_state_owns_arrays_of_the_config_shape():
    positions = np.full((3, 2), sim._COORD_LIMIT) * [1.0, -1.0]  # the bound is inclusive
    piles = np.zeros((3, 1, 1, 2))
    last = np.ones((1, 1, 2))
    state = hand_world(positions, piles, last)
    assert np.array_equal(state.positions, positions)
    assert not np.shares_memory(state.positions, positions)
    assert not np.shares_memory(state.piles, piles)
    assert not np.shares_memory(state.last_collected, last)
    assert not np.shares_memory(state.piles, state.last_collected)
    with pytest.raises(InputError, match="positions"):
        WorldState(config=state.config, positions=[(0.0, 0.0)] * 2, piles=piles,
                   last_collected=last)
    with pytest.raises(InputError, match="piles"):
        hand_world([(0.0, 0.0)] * 3, np.zeros((3, 1, 2, 2)), last)
    with pytest.raises(InputError, match="last_collected"):
        hand_world([(0.0, 0.0)] * 3, piles, np.ones((2, 1, 2)))


def one_entry(device, coordinate, value):
    positions = np.zeros((3, 2))
    positions[device, coordinate] = value
    return positions


PAST_LIMIT = np.nextafter(sim._COORD_LIMIT, np.inf)


@pytest.mark.parametrize("positions", [
    np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((4, 2)),
    *(one_entry(device, coordinate, value) for device, coordinate in ((0, 0), (2, 1))
      for value in (np.nan, np.inf, -np.inf, PAST_LIMIT, -PAST_LIMIT)),
])
def test_world_state_refuses_positions_off_shape_or_past_the_coordinate_bound(positions):
    """Positions are checked once, where the state takes them, against the
    bound ``WorldConfig`` puts on its own coordinates."""
    config = small_config(image_rows=1, image_cols=2, pile_size=1)
    with pytest.raises(InputError, match="positions"):
        WorldState(config=config, positions=positions, piles=np.zeros((3, 1, 1, 2)),
                   last_collected=np.zeros((1, 1, 2)))


RAGGED = {"positions": [(0.0, 0.0), (1.0,), (2.0, 2.0)],
          "piles": [np.zeros((1, 1, 2)), np.zeros((1, 1, 3)), np.zeros((1, 1, 2))],
          "last_collected": [[[0.0, 0.0], [0.0]]]}


@pytest.mark.parametrize("key", sorted(RAGGED))
def test_world_state_names_the_key_of_a_ragged_array(key):
    arrays = {"positions": np.zeros((3, 2)), "piles": np.zeros((3, 1, 1, 2)),
              "last_collected": np.zeros((1, 1, 2)), key: RAGGED[key]}
    config = small_config(image_rows=1, image_cols=2, pile_size=1)
    with pytest.raises(InputError, match=f"^{key} must be numbers"):
        WorldState(config=config, **arrays)


@pytest.mark.parametrize("key", ["piles", "last_collected"])
@pytest.mark.parametrize("pixel", [-1e-300, np.nextafter(1.0, 2.0), np.nan, np.inf])
def test_world_state_refuses_pixels_outside_the_unit_interval(key, pixel):
    """The round prices piles unchecked, so the state takes only pixels a
    capture can produce, and ``replace_pile`` and ``collect`` refuse the
    rest without changing the state."""
    arrays = {"piles": np.zeros((3, 1, 1, 2)), "last_collected": np.zeros((1, 1, 2))}
    arrays[key].flat[-1] = pixel
    with pytest.raises(InputError, match=f"^{key} must hold pixels within"):
        hand_world([(0.0, 0.0)] * 3, **arrays)
    state = three_device_world()
    before = held_bits(state)
    bad = np.full((1, 1, 2), pixel)
    for write in (state.replace_pile, state.collect):
        with pytest.raises(InputError, match="^pile must hold pixels within"):
            write(1, bad)
    for now, then in zip(held_bits(state), before, strict=True):
        assert np.array_equal(now, then)


@pytest.mark.parametrize("x", [np.nan, np.inf, -PAST_LIMIT])
def test_uav_position_is_checked_whenever_it_is_set(x):
    state = three_device_world()
    state.uav_position = (np.float64(7.0), 0)
    assert state.uav_position == (7.0, 0.0)
    assert [type(coordinate) for coordinate in state.uav_position] == [float, float]
    for position in ((x, 0.0), (0.0, x)):
        with pytest.raises(InputError, match="^uav_position must be finite and at most"):
            state.uav_position = position
    assert state.uav_position == (7.0, 0.0)


@pytest.mark.parametrize("coordinate, message", [
    ("5", "uav_position must be a number, got '5'"),
    (np.str_("5"), "uav_position must be a number"),
    (1j, "uav_position must be a real number, got 1j"),
    (None, "uav_position must be a number, got None"),
])
def test_uav_position_reads_its_coordinates_naming_the_key(coordinate, message):
    # "5" was parsed, and 1j and None raised float()'s TypeError.
    state = three_device_world()
    start = state.uav_position
    for position in ((coordinate, 1.0), (1.0, coordinate)):
        with pytest.raises(InputError, match=f"^{message}"):
            state.uav_position = position
    assert state.uav_position == start


@pytest.mark.parametrize("coordinate, message", [("5", "must be a number, got '5'"),
                                                 (1j, "must be a real number, got 1j")])
def test_distance_reads_its_coordinates_naming_the_point(coordinate, message):
    # "5" raised numpy's TypeError for text and 1j hypot's for complex.
    for a, b, point in (((coordinate, 0.0), (0.0, 0.0), "a"),
                        ((0.0, 0.0), (0.0, coordinate), "b")):
        with pytest.raises(InputError, match=f"^point {point} {message}"):
            distance(a, b)
    assert distance((np.float64(3.0), 4), [0, np.int64(0)]) == 5.0


def test_a_sold_round_reads_no_outside_value(monkeypatch):
    """The round hands the setter and ``distance`` only Python floats of its
    own, which the shared reader returns as the same objects; any other
    number goes through the full reader."""
    handed = []

    def recorded(value, what):
        read = real(value, what)
        handed.append((what, value, read))
        return read

    real = sim._real
    monkeypatch.setattr(sim, "_real", recorded)
    monkeypatch.setattr(valuation, "_real", recorded)
    state = generate_world(small_config(battery=1e12))
    handed.clear()
    records = [step(state, SecondPriceMechanism())[1] for _ in range(5)]
    assert all(record.outcome.sold for record in records)
    assert {what for what, _, _ in handed} == {"uav_position", "point a", "point b"}
    assert all(type(value) is float and read is value for _, value, read in handed)
    handed.clear()
    state.uav_position = (np.float64(1.0), 2)
    assert [(what, type(value), type(read), read) for what, value, read in handed] == [
        ("uav_position", np.float64, float, 1.0), ("uav_position", int, float, 2.0)]


def test_hand_built_state_starts_where_its_config_says():
    config = small_config(n_devices=2, image_rows=1, image_cols=2, pile_size=1,
                          uav_x=-7.5, uav_y=12, battery=321)
    state = WorldState(config=config, positions=[(0.0, 0.0)] * 2,
                       piles=np.zeros((2, 1, 1, 2)), last_collected=np.zeros((1, 1, 2)))
    assert state.uav_position == (-7.5, 12.0)
    assert [type(coordinate) for coordinate in state.uav_position] == [float, float]
    assert type(state.battery) is float and state.battery == 321.0
    assert state.round == 0


def test_coordinate_columns_are_read_only_copies_of_the_positions():
    """The round prices distances from the state's own x and y columns, made once: they equal
    ``positions``' columns bitwise, hold no memory of it and refuse writes."""
    state = generate_world(WorldConfig(n_devices=7, seed=5))
    for column, cached in enumerate((state._xs, state._ys)):
        assert np.array_equal(bits(cached), bits(state.positions[:, column]))
        assert cached.flags.c_contiguous and not np.shares_memory(cached, state._positions)
        for array in (cached, cached.base):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    x, y = state.uav_position
    assert np.array_equal(bits(form_valuations(state)), bits(normalize_profile(valuation_score(
        pile_similarity(state.piles, state.last_collected),
        [distance((x, y), position) for position in state.positions]),
        state.config.distribution).values))


def test_piles_and_terms_are_read_only_with_one_writer():
    """A write through ``piles`` or ``terms`` raises rather than leaving the
    terms stale, also on a deep copy, whose arrays numpy hands back
    writeable; ``replace_pile`` is the one writer, per copy.  The writers
    refuse a device that names no row before any write: 3 raised
    ``IndexError``, -1 wrote device 2's row, ``True`` wrote device 1's row,
    and ``np.True_`` wrote every row through a boolean index, then raised
    with the sums left stale."""
    state = three_device_world()
    before = state.piles.copy()
    frozen = copy.deepcopy(state)
    for world in (state, frozen):
        for view in (world.piles, *world.terms, world.last_collected, *world.reference_terms,
                     world.positions):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                view += 1.0
        for name in ("piles", "terms", "last_collected", "reference_terms", "positions"):
            with pytest.raises(AttributeError):
                setattr(world, name, getattr(world, name))
        with pytest.raises(InputError, match="pile"):
            world.replace_pile(0, np.zeros((1, 2, 2)))
        held = held_bits(world)
        for device, message in ((3, "within [0, 3), got 3"), (-1, "within [0, 3), got -1"),
                                (True, "an integer, got True"),
                                (np.True_, "an integer, got np.True_")):
            for write in (world.replace_pile, world.collect):
                with pytest.raises(InputError, match=rf"^device must be {re.escape(message)}$"):
                    write(device, np.full((1, 1, 2), 0.25))
                for now, then in zip(held_bits(world), held, strict=True):
                    assert np.array_equal(now, then)
    frozen.replace_pile(1, np.full((1, 1, 2), 0.25))
    assert np.array_equal(state.piles, before)
    assert frozen.piles[1].tolist() == [[[0.25, 0.25]]]
    assert [term[1].tolist() for term in frozen.terms] == [[0.125], [0.25, 0.25], 0.125]


def test_form_valuations_hand_computed():
    values = form_valuations(three_device_world())
    # raw = mse * distance: 1.0*5, 0.5*5, 0.25*7 -> normalized onto [0.5, 1]
    assert values[0] == 1.0
    assert values[2] == 0.5
    assert values[1] == pytest.approx(0.6153846153846154, abs=1e-12)


def test_form_valuations_zero_distance_scores_lowest():
    state = three_device_world()
    state.uav_position = tuple(state.positions[2])  # distance 0 -> raw 0
    assert form_valuations(state)[2] == state.config.distribution.lower


def test_form_valuations_identical_pile_scores_lowest():
    state = three_device_world()
    state.replace_pile(0, state.last_collected)  # mse 0 -> raw 0
    assert form_valuations(state)[0] == state.config.distribution.lower


def test_form_valuations_degenerate_falls_back_to_midpoint():
    pile = np.full((1, 1, 2), 0.5)
    state = hand_world([(10.0, 0.0)] * 3, [pile] * 3, pile)
    # equal similarity and equal distance: zero spread
    assert np.all(form_valuations(state) == state.config.distribution.midpoint)


def test_form_valuations_takes_a_spread_too_small_to_scale_as_none():
    """A pixel of 1e-160 leaves a raw spread of about 5e-321, whose scale
    ``width / span`` overflows; normalizing it would map the lowest score
    to ``0 * inf = NaN``, so the round takes the midpoint instead."""
    reference = np.zeros((1, 1, 2))
    state = hand_world([(10.0, 0.0)] * 3, [reference, reference, np.full((1, 1, 2), 1e-160)],
                       reference)
    assert np.all(form_valuations(state) == state.config.distribution.midpoint)


def test_step_winner_flies_and_swaps_pile():
    state = three_device_world()
    old_pile = state.piles[0].copy()
    new_state, record = step(state, SecondPriceMechanism())
    assert new_state is state
    assert record.mechanism == "spa"
    assert record.outcome.winner == 0
    assert record.outcome.payment == pytest.approx(0.6153846153846154, abs=1e-12)
    assert record.distance_flown == 5.0
    assert state.uav_position == (3.0, 4.0)
    assert state.battery == 995.0
    assert (record.uav_position, record.battery) == ((3.0, 4.0), 995.0)
    assert np.array_equal(state.last_collected, old_pile)
    assert not np.array_equal(state.piles[0], old_pile)
    assert state.round == 1
    # the reference is a copy: replacing the piles leaves it alone
    assert not np.shares_memory(state.last_collected, state.piles)
    for device in range(3):
        state.replace_pile(device, np.full((1, 1, 2), 0.25))
    assert np.array_equal(state.last_collected, old_pile)


def test_record_holds_the_read_only_array_the_mechanism_cleared():
    class Spy:
        name = "spa"

        def __init__(self):
            self.cleared = []

        def clear(self, values):
            self.cleared.append(values)
            return spa_clear(values)

    spy = Spy()
    records = run_episode(generate_world(small_config(max_rounds=3)), spy)
    assert len(records) == len(spy.cleared) == 3
    for record, cleared in zip(records, spy.cleared):
        assert record.valuations is cleared
        assert not record.valuations.flags.writeable
        with pytest.raises(ValueError):
            record.valuations[0] = 0.0


def test_step_regeneration_is_seeded():
    a = three_device_world()
    b = three_device_world()
    step(a, SecondPriceMechanism())
    step(b, SecondPriceMechanism())
    assert np.array_equal(a.piles, b.piles)


def test_step_battery_floors_on_final_hop():
    state = three_device_world(battery=3.0)
    _, record = step(state, SecondPriceMechanism())
    assert record.distance_flown == 5.0
    assert state.battery == 0.0
    assert state.uav_position == (3.0, 4.0)
    assert (record.uav_position, record.battery) == ((3.0, 4.0), 0.0)


def test_step_no_sale_leaves_world_untouched():
    state = three_device_world()
    frozen = copy.deepcopy(state)
    # offset -2 pushes every transformed bid below the reserve
    mechanism = LearnedMechanism(MonotoneNetParams.affine(3, 1.0, -2.0))
    _, record = step(state, mechanism)
    assert record.mechanism == "dla"
    assert record.outcome.winner is None
    assert record.outcome.revenue == 0.0
    assert record.distance_flown == 0.0
    assert state.round == 1
    assert state.uav_position == frozen.uav_position
    assert state.battery == frozen.battery
    assert (record.uav_position, record.battery) == (frozen.uav_position, frozen.battery)
    assert np.array_equal(state.last_collected, frozen.last_collected)
    assert np.array_equal(state.piles, frozen.piles)


class EveryThirdUnsold:
    """Second price, except that every third round sells nothing."""

    name = "spa"

    def __init__(self):
        self.rounds = 0

    def clear(self, values):
        self.rounds += 1
        return AuctionOutcome(None, 0.0) if self.rounds % 3 == 0 else spa_clear(values)


@pytest.mark.parametrize("aggregate", ["mean", "min"])
@pytest.mark.parametrize("seed, shape", [(4, (5, 2, 4, 4)), (29, (40, 3, 16, 16)),
                                         (8, (6, 11, 3, 5))])
def test_cached_terms_track_the_piles_every_round(aggregate, seed, shape, monkeypatch):
    """After generation and after every sold or unsold step, the state's
    terms, norm totals included, equal, bit for bit, those recomputed from
    its piles, and its valuations equal those scored from the piles with no
    terms given.  A pile of 11 images sums its norms pairwise in numpy,
    not in order."""
    devices, size, rows, cols = shape
    state = generate_world(small_config(n_devices=devices, pile_size=size, image_rows=rows,
                                        image_cols=cols, seed=seed, battery=1e12,
                                        similarity_aggregate=aggregate))

    calls = []

    def uncached(piles, reference, terms, reference_terms, aggregate):
        calls.append(None)
        return pile_similarity(piles, reference, aggregate)

    mechanism, sold = EveryThirdUnsold(), []
    for _ in range(16):
        for cached, fresh in zip(state.terms, pile_terms(state.piles)):
            assert np.array_equal(bits(cached), bits(fresh))
        for cached, fresh in zip(state.reference_terms, pile_terms(state.last_collected[None])):
            assert np.array_equal(bits(cached), bits(fresh[0]))
        values = form_valuations(state)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_similarity", uncached)
            assert np.array_equal(bits(values), bits(form_valuations(state)))
        sold.append(step(state, mechanism)[1].outcome.sold)
    assert 0 < sum(sold) < len(sold)
    assert len(calls) == 16


@settings(deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 999), st.sampled_from(["mean", "min"]),
       st.sampled_from(["product", "proximity"]), st.booleans())
def test_round_path_equals_the_checked_public_chain_bitwise(devices, size, rows, cols, seed,
                                                            aggregate, rule, flat):
    """``form_valuations`` runs the kernels unchecked on the state's cached
    terms; the checked public calls on the same state give the same bits,
    round after sold and unsold round.  A ``flat`` world holds one pile at
    one spot everywhere, so its first round has zero spread and both take
    the midpoint."""
    config = small_config(n_devices=devices, pile_size=size, image_rows=rows, image_cols=cols,
                          seed=seed, battery=1e12, similarity_aggregate=aggregate,
                          valuation_rule=rule)
    state = generate_world(config)
    if flat:
        state = WorldState(config, np.full((devices, 2), 100.0),
                           [state.last_collected] * devices, state.last_collected)
    mechanism, degenerate = EveryThirdUnsold(), []
    for _ in range(4):
        values = form_valuations(state)
        raws = valuation_score(pile_similarity(state.piles, state.last_collected, aggregate),
                               [distance(state.uav_position, pos) for pos in state.positions],
                               rule)
        try:
            expected = normalize_profile(raws, config.distribution).values
        except DegenerateProfileError:
            expected = np.full(devices, config.distribution.midpoint)
            degenerate.append(len(degenerate))
        assert np.array_equal(bits(values), bits(expected))
        assert not values.flags.writeable
        step(state, mechanism)
        for cached, fresh in zip(state.reference_terms, pile_terms(state.last_collected[None])):
            assert np.array_equal(bits(cached), bits(fresh[0]))
    assert not flat or degenerate[:1] == [0]


def test_a_sold_round_writes_what_the_public_collect_writes(monkeypatch):
    """``step`` hands its own capture to the state's writer unchecked;
    replaying each capture through the checked ``collect`` on a shadow
    state leaves the same piles, reference and terms, bit for bit, after
    every sold and unsold round."""
    state = generate_world(small_config(n_devices=6, pile_size=2, seed=5, battery=1e12))
    shadow = copy.deepcopy(state)
    captures = []

    def kept(*args):
        captures.append(capture(*args))
        return captures[-1]

    capture = sim._capture_pile
    monkeypatch.setattr(sim, "_capture_pile", kept)
    mechanism, sold = EveryThirdUnsold(), []
    for _ in range(12):
        outcome = step(state, mechanism)[1].outcome
        if outcome.sold:
            shadow.collect(outcome.winner, captures.pop())
        sold.append(outcome.sold)
        for now, then in zip(held_bits(state), held_bits(shadow), strict=True):
            assert np.array_equal(now, then)
    assert 0 < sum(sold) < len(sold) and captures == []


KEY_WORDS = [0, 2**32 - 1, 2**32, 2**40 + 3, 2**70 + 12345]


@pytest.mark.parametrize("seed", KEY_WORDS)
def test_stream_draws_what_the_list_seeded_generator_draws(seed):
    """``_stream`` seeds from the words ``SeedSequence`` derives from the
    list: one per int below 2**32, two or three past it.  Both refuse a
    negative int.  The training and CLI streams are keyed like the simulator's."""
    tags = ("field", "train", "train_eval", "eval", "gap")
    keys = [(), *((_TAGS[name],) for name in tags),
            *((_TAGS["regen"], round_, winner) for round_ in KEY_WORDS
              for winner in (0, np.int64(7), 2**32))]
    for key in keys:
        ours, listed = _stream(seed, *key), np.random.default_rng([seed, *key])
        for draw in ("random", "standard_normal"):
            assert np.array_equal(bits(getattr(ours, draw)(4)), bits(getattr(listed, draw)(4)))
    with pytest.raises(OverflowError):  # SeedSequence raises ValueError on a negative int
        _stream(seed, -1)


def test_a_world_past_32_bit_keys_keeps_the_list_seeded_streams(monkeypatch):
    """A seed and a round past 2**32 take two words each; the piles after
    generation and after a sold round are those of the list-seeded streams."""
    def run():
        state = generate_world(small_config(seed=2**40 + 3, battery=1e12))
        generated = state.piles.copy()
        state.round = 2**32 + 1
        assert step(state, SecondPriceMechanism())[1].outcome.sold
        return [bits(generated), *held_bits(state)]

    ours = run()
    monkeypatch.setattr(sim, "_stream", lambda *key: np.random.default_rng(list(key)))
    for now, then in zip(ours, run(), strict=True):
        assert np.array_equal(now, then)


def test_step_requires_charge():
    state = three_device_world(battery=0.0)
    with pytest.raises(EpisodeExhaustedError, match="before round 0"):
        step(state, SecondPriceMechanism())


def test_run_episode_lengths():
    records = run_episode(generate_world(small_config(max_rounds=1)), SecondPriceMechanism())
    assert len(records) == 1
    assert records[0].round == 0

    state = generate_world(small_config(battery=1e12, max_rounds=10))
    records = run_episode(state, SecondPriceMechanism())
    assert len(records) == 10
    assert [r.round for r in records] == list(range(10))


def test_run_episode_rejects_bad_inputs():
    # the round cap is checked once, where the config is built
    with pytest.raises(InputError, match="max_rounds must be at least 1"):
        small_config(max_rounds=0)
    state = generate_world(small_config(max_rounds=5))
    state.battery = 0.0
    with pytest.raises(EpisodeExhaustedError):
        run_episode(state, SecondPriceMechanism())


def test_run_episode_stops_when_battery_dies():
    state = generate_world(small_config(battery=200.0, max_rounds=50))
    records = run_episode(state, SecondPriceMechanism())
    assert len(records) < 50
    assert state.battery == 0.0


def test_episode_battery_and_distance_invariants():
    config = small_config(n_devices=5, battery=900.0, seed=3, max_rounds=60)
    state = generate_world(config)
    records = run_episode(state, SecondPriceMechanism())
    batteries = []
    battery = config.battery
    for record in records:
        battery = max(0.0, battery - record.distance_flown)
        batteries.append(battery)
    assert batteries[-1] == state.battery
    assert all(b2 <= b1 for b1, b2 in zip(batteries, batteries[1:]))
    # every hop but a possibly overshooting last one is fully funded
    flown = [r.distance_flown for r in records]
    assert sum(flown[:-1]) <= config.battery + 1e-9


def test_episode_winner_is_argmax_of_valuations():
    mechanism = SecondPriceMechanism()
    for seed in range(8):
        state = generate_world(small_config(seed=seed, n_devices=4, battery=3000.0,
                                            max_rounds=12))
        for record in run_episode(state, mechanism):
            values = record.valuations
            if record.outcome.winner is not None:
                assert record.outcome.winner == int(np.argmax(values))


def test_episode_replays_bitwise_from_seed(tmp_path):
    paths = []
    for tag in ("a", "b"):
        state = generate_world(small_config(seed=21, max_rounds=6))
        records = run_episode(state, SecondPriceMechanism())
        path = tmp_path / f"{tag}.jsonl"
        write_episode_events(path, records)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# the lattice spans 17 cells of 120 m; coordinates past it, or negative, wrap around
coordinates = st.floats(-6000.0, 6000.0)


@settings(deadline=None)
@given(coordinates, coordinates, st.integers(1, 5), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_capture_pile_equals_per_image_meshgrid_oracle_bitwise(x, y, size, rows, cols, seed):
    config = small_config(pile_size=size, image_rows=rows, image_cols=cols, seed=seed % 1000)
    field_ = sim._NoiseField(config.seed)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pile = sim._capture_pile(field_, rng, (x, y), config)
    oracle = capture_pile_meshgrid(field_, oracle_rng, (x, y), config)
    assert pile.shape == (size, rows, cols)
    assert np.array_equal(bits(pile), bits(oracle))
    # the draws are made in the same order, so the streams end in the same state
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


WRAP_METERS = sim._LATTICE_N * sim._CELL_METERS  # the field repeats every 17 cells of 120 m


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 999), st.floats(1.0, sim._COORD_LIMIT),
       st.booleans())
@example(0, 0, sim._COORD_LIMIT, False)
@example(1, 0, sim._COORD_LIMIT, True)
@example(2, 0, 1e5, True)
def test_noise_sample_equals_the_2d_index_oracle_bitwise(seed, field_seed, spread, on_wrap):
    """The field gathers each pixel's four cell corners from its corner
    table in one take; on a capture's broadcast ``(P, 1, C)`` and
    ``(P, R, 1)`` grids it gives the 2-D fancy index's bits, out to the
    coordinate bound.  ``on_wrap`` puts the coordinates at exact multiples
    of the wrap, or half a cell below one, so the table's first and its
    wrapped last row and column are read."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-spread, spread, (3, 1, 5))
    ys = rng.uniform(-spread, spread, (3, 4, 1))
    if on_wrap:
        xs, ys = (np.clip(np.trunc(c / WRAP_METERS) * WRAP_METERS, -sim._COORD_LIMIT,
                          sim._COORD_LIMIT) for c in (xs, ys))
        xs[:, :, ::2] -= sim._CELL_METERS / 2
        ys[:, ::2] -= sim._CELL_METERS / 2
    field_ = sim._NoiseField(field_seed)
    assert np.array_equal(bits(field_.sample(xs, ys)), bits(noise_sample_2d_index(field_, xs, ys)))


def benchmark_scale_episode(tmp_path, tag):
    """A seeded 200-device, 50-round dla episode with events, through the CLI."""
    ckpt = tmp_path / "world.ckpt"
    if not ckpt.exists():
        save_params(init_params(NetConfig(n_bidders=200), np.random.default_rng(17)), ckpt)
    out = tmp_path / tag
    out.mkdir()
    assert main(["simulate", "--mechanism", "dla", "--checkpoint", str(ckpt),
                 "--n-devices", "200", "--max-rounds", "50", "--battery", "1e12",
                 "--seed", "17", "--out", str(out / "episode.csv"),
                 "--events", str(out / "episode.jsonl")]) == 0
    return (out / "episode.csv").read_bytes(), (out / "episode.jsonl").read_bytes()


def test_benchmark_scale_episode_keeps_its_bytes(tmp_path):
    """No golden runs more than 40 devices; these digests pin the
    benchmark's 200-device shape, its CSV and its events."""
    digests = [hashlib.sha256(data).hexdigest()
               for data in benchmark_scale_episode(tmp_path, "pinned")]
    assert digests == ["a92cef11a4ccf66d87452a0fa7d8012dfc62f60e2760589052b9e9a548077672",
                       "6fcfc88cfb2c92f8b21e2e92866bd5e9e438234642a8b2c03db57ab8bbdeeec4"]


def normalized_gap_bound(similarity_bound, dists, raws, dist):
    """Largest valuation gap that similarities within ``similarity_bound`` allow.

    A product-rule raw score ``fl(s * d)`` moves by at most ``d * b``
    plus a rounding of each side, under ``2 d b + 3u r`` for a similarity
    bound ``b``; call the largest over the devices ``E``.  The low and
    high raws, as a min and a max, move by at most ``E`` each, so the
    exact min-max map ``W (r - low) / span`` moves by at most
    ``4 W E / (span - 2E)``.  Each side computes it with four roundings
    of that term (span, ``W / span``, ``r - low``, product) and one of
    the sum with ``lower``, within ``gamma(5) * (W + upper)``; the clip
    moves nothing further apart.  The span computed here loses ``u`` of
    itself, so the bound takes ``span - 3E``.
    """
    spread = float(np.max(2 * dists * similarity_bound + 3 * U * raws))
    span = float(raws.max() - raws.min())
    assert span > 3 * spread
    rounding = 2 * gamma(5) * (dist.width + dist.upper)
    return 4 * dist.width * spread / (span - 3 * spread) + rounding


def test_benchmark_scale_episode_matches_the_oracle_kernels_bytewise(tmp_path, monkeypatch):
    """Pile capture replays the episode byte for byte from its per-image
    oracle.  The direct similarity oracle ignores the state's cached terms
    and reads the piles; it picks the same winners, so both runs see the
    same worlds.  The episode scores by ``mean``, which the kernel takes
    from the cached per-pile sums, and the oracle run's valuations lie
    within that form's rounding bound of the kernel run's."""
    fast = benchmark_scale_episode(tmp_path, "kernels")
    calls = []

    def counted(oracle):
        def wrapper(*args, **kwargs):
            calls.append(oracle.__name__)
            return oracle(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "_capture_pile", counted(capture_pile_meshgrid))
    assert benchmark_scale_episode(tmp_path, "capture") == fast
    assert calls.count("capture_pile_meshgrid") >= 201  # every device, the sentinel, the wins
    assert fast[0].count(b"\n") == 51

    rounds = []  # [similarity bound, distances, raw scores] of each oracle round
    score = sim._score

    def direct(piles, reference, terms, reference_terms, aggregate):
        rounds.append([similarity_rounding_bound(piles, reference, aggregate)])
        return pile_similarity_per_image(piles, reference, aggregate)

    def spy(similarity, dist_meters, rule):
        raws = score(similarity, dist_meters, rule)
        rounds[-1] += [dist_meters, raws]
        return raws

    monkeypatch.setattr(sim, "_similarity", direct)
    monkeypatch.setattr(sim, "_score", spy)
    slow = benchmark_scale_episode(tmp_path, "oracles")
    assert len(rounds) == 50
    assert all(len(entries) == 3 for entries in rounds)  # the spy ran every round
    events = [[json.loads(line) for line in run[1].splitlines()] for run in (fast, slow)]
    assert [e["winner"] for e in events[0]] == [e["winner"] for e in events[1]]
    dist = ValuationDistribution()
    for kernel, oracle, (bound, dists, raws) in zip(*events, rounds):
        gap = np.abs(np.subtract(kernel["valuations"], oracle["valuations"])).max()
        assert gap <= normalized_gap_bound(bound, dists, raws, dist)


def test_form_valuations_distances_equal_distance_bitwise(monkeypatch):
    state = generate_world(small_config(n_devices=200, area_width=1000.0, area_height=1000.0,
                                        battery=1e12))
    original, seen = sim._score, []

    def spy(similarity, dist_meters, rule):
        seen.append(np.array(dist_meters))
        return original(similarity, dist_meters, rule)

    monkeypatch.setattr(sim, "_score", spy)
    collectors = set()
    for _ in range(20):
        collectors.add(state.uav_position)
        expected = [distance(state.uav_position, pos) for pos in state.positions]
        step(state, SecondPriceMechanism())
        assert np.array_equal(bits(seen[-1]), bits(expected))
    assert len(seen) == 20
    assert len(collectors) > 1


def test_write_episode_csv_round_trips(tmp_path):
    config = small_config(seed=5, battery=1500.0, max_rounds=5)
    state = generate_world(config)
    start = state.uav_position
    records = run_episode(state, SecondPriceMechanism())
    path = tmp_path / "episode.csv"
    write_episode_csv(path, records)

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == EPISODE_CSV_COLUMNS
    assert len(rows) == len(records) + 1
    battery = config.battery
    position = start
    for row, record in zip(rows[1:], records):
        assert int(row[0]) == record.round
        assert row[1] == "spa"
        winner = record.outcome.winner
        assert int(row[2]) == (-1 if winner is None else winner)
        # repr floats parse back to the exact doubles
        assert float(row[3]) == record.outcome.payment
        assert float(row[4]) == record.outcome.revenue
        if record.outcome.sold:
            position = state.positions[winner]
            battery = max(0.0, battery - record.distance_flown)
        assert float(row[5]) == position[0]
        assert float(row[6]) == position[1]
        assert float(row[7]) == battery
        assert float(row[8]) == record.distance_flown


def test_write_episode_csv_writes_numpy_scalars_as_floats(tmp_path):
    record = RoundRecord(round=0, valuations=np.array([0.2, 0.9]),
                         mechanism="spa", outcome=AuctionOutcome(1, np.float64(0.2)),
                         distance_flown=np.float64(0.0), uav_position=(np.float64(1.0), 2.0),
                         battery=np.float64(3.0))
    path = tmp_path / "numpy.csv"
    write_episode_csv(path, [record])
    assert path.read_text().splitlines()[1] == "0,spa,1,0.2,0.2,1.0,2.0,3.0,0.0"


def test_write_episode_csv_marks_no_sale(tmp_path):
    state = three_device_world()
    mechanism = LearnedMechanism(MonotoneNetParams.affine(3, 1.0, -2.0))
    _, record = step(state, mechanism)
    path = tmp_path / "nosale.csv"
    write_episode_csv(path, [record])
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[1][1] == "dla"
    assert rows[1][2] == "-1"
    assert float(rows[1][3]) == 0.0


def test_write_episode_events_fields(tmp_path):
    config = small_config(seed=9, max_rounds=3)
    state = generate_world(config)
    records = run_episode(state, SecondPriceMechanism())
    path = tmp_path / "events.jsonl"
    write_episode_events(path, records)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line, record in zip(lines, records):
        event = json.loads(line)
        assert event["round"] == record.round
        assert event["mechanism"] == "spa"
        assert event["winner"] == record.outcome.winner
        assert event["payment"] == record.outcome.payment
        assert event["valuations"] == record.valuations.tolist()
        assert len(event["valuations"]) == config.n_devices
        assert len(event["allocation"]) == config.n_devices
        assert math.isfinite(event["battery"])


def test_write_episode_events_allocation_is_one_hot_on_the_winner(tmp_path):
    here = (0.0, 0.0)
    records = [RoundRecord(round=r, valuations=np.array([0.2, 0.9, 0.4]),
                           mechanism="dla", outcome=outcome, distance_flown=0.0,
                           uav_position=here, battery=10.0)
               for r, outcome in enumerate([AuctionOutcome(1, 0.4), AuctionOutcome(None, 0.0)])]
    path = tmp_path / "events.jsonl"
    write_episode_events(path, records)
    sold, unsold = (json.loads(line) for line in path.read_text().splitlines())
    assert (sold["winner"], sold["revenue"]) == (1, 0.4)
    assert sold["allocation"] == [0.0, 1.0, 0.0]
    assert (unsold["winner"], unsold["revenue"]) == (None, 0.0)
    assert unsold["allocation"] == [0.0, 0.0, 0.0]


def test_write_episode_events_writes_an_empty_file_for_no_records(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"old stream\n")
    write_episode_events(path, [])
    assert path.read_bytes() == b""


def test_write_episode_events_memory_stays_flat_in_the_record_count(tmp_path):
    """The writer holds one line, not the stream: its traced peak over 2,000 records stays
    under 64 KB (a joined stream of 2,000 lines peaked near 2 MB)."""
    config = WorldConfig(n_devices=5, image_rows=2, image_cols=2, pile_size=1, battery=1e12,
                         max_rounds=2000)
    records = run_episode(generate_world(config), SecondPriceMechanism())
    peaks = []
    for count in (200, 2000):
        head = records[:count]
        tracemalloc.start()
        try:
            write_episode_events(tmp_path / f"events{count}.jsonl", head)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len((tmp_path / "events2000.jsonl").read_text().splitlines()) == 2000
    assert max(peaks) < 64 * 2**10, peaks


def test_mechanism_names():
    assert SecondPriceMechanism().name == "spa"
    assert LearnedMechanism(MonotoneNetParams.affine(2, 1.0, 0.0)).name == "dla"
