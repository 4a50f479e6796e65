"""World generation, valuation formation, round stepping, episode logs."""

import copy
import csv
import json
import math

import numpy as np
import pytest

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.errors import EpisodeExhaustedError, InputError
from myerson_airnet.network import MonotoneNetParams
from myerson_airnet.sim import (EPISODE_CSV_COLUMNS, LearnedMechanism, SecondPriceMechanism,
                                WorldConfig, WorldState, form_valuations, generate_world,
                                run_episode, step, write_episode_csv, write_episode_events)
from myerson_airnet.valuation import Position


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
    with pytest.raises(InputError):
        small_config(similarity_aggregate="max")
    with pytest.raises(InputError):
        small_config(valuation_rule="sum")
    with pytest.raises(InputError):
        small_config(max_rounds=0)
    with pytest.raises(InputError):
        small_config(distribution=ValuationDistribution(-0.5, 1.0))
    # an unlimited battery is allowed
    assert small_config(battery=float("inf")).battery == float("inf")


def test_generate_world_is_deterministic():
    a = generate_world(small_config())
    b = generate_world(small_config())
    assert a.uav_position == b.uav_position
    assert a.battery == b.battery
    assert np.array_equal(a.last_collected, b.last_collected)
    assert a.positions == b.positions
    assert np.array_equal(a.piles, b.piles)

    other = generate_world(small_config(seed=12))
    assert any(pa != po for pa, po in zip(a.positions, other.positions))


def test_generate_world_geometry():
    config = small_config(n_devices=6, image_rows=5, image_cols=7, pile_size=3)
    state = generate_world(config)
    assert len(state.positions) == 6
    assert state.uav_position == Position(config.uav_x, config.uav_y)
    assert state.battery == config.battery
    assert state.round == 0
    for position in state.positions:
        assert 0.0 <= position.x <= config.area_width
        assert 0.0 <= position.y <= config.area_height
    assert state.piles.shape == (6, 3, 5, 7)
    assert state.last_collected.shape == (3, 5, 7)
    assert np.all((state.piles >= 0.0) & (state.piles <= 1.0))


def hand_world(positions, piles, last_collected, uav=Position(0.0, 0.0), battery=1000.0,
               **overrides):
    config = small_config(n_devices=len(positions), image_rows=1, image_cols=2,
                          pile_size=1, battery=battery, **overrides)
    return WorldState(config=config, uav_position=uav, battery=battery,
                      positions=positions, piles=piles, last_collected=last_collected)


def three_device_world(**overrides):
    """Hand-checkable market: raw scores 5.0, 2.5, and 1.75."""
    positions = (Position(3.0, 4.0), Position(0.0, 5.0), Position(7.0, 0.0))
    piles = [np.ones((1, 1, 2)), np.array([[[1.0, 0.0]]]), np.full((1, 1, 2), 0.5)]
    return hand_world(positions, piles, np.zeros((1, 1, 2)), **overrides)


def test_world_state_owns_arrays_of_the_config_shape():
    piles = np.zeros((3, 1, 1, 2))
    last = np.ones((1, 1, 2))
    state = hand_world([Position(0.0, 0.0)] * 3, piles, last)
    assert not np.shares_memory(state.piles, piles)
    assert not np.shares_memory(state.last_collected, last)
    assert not np.shares_memory(state.piles, state.last_collected)
    with pytest.raises(InputError, match="positions"):
        WorldState(config=state.config, uav_position=Position(0.0, 0.0), battery=1.0,
                   positions=[Position(0.0, 0.0)] * 2, piles=piles, last_collected=last)
    with pytest.raises(InputError, match="piles"):
        hand_world([Position(0.0, 0.0)] * 3, np.zeros((3, 1, 2, 2)), last)
    with pytest.raises(InputError, match="last_collected"):
        hand_world([Position(0.0, 0.0)] * 3, piles, np.ones((2, 1, 2)))


def test_form_valuations_hand_computed():
    profile = form_valuations(three_device_world())
    # raw = mse * distance: 1.0*5, 0.5*5, 0.25*7 -> normalized onto [0.5, 1]
    assert profile.values[0] == 1.0
    assert profile.values[2] == 0.5
    assert profile.values[1] == pytest.approx(0.6153846153846154, abs=1e-12)


def test_form_valuations_zero_distance_scores_lowest():
    state = three_device_world()
    state.uav_position = state.positions[2]  # distance 0 -> raw 0
    profile = form_valuations(state)
    assert profile.values[2] == state.config.distribution.lower


def test_form_valuations_identical_pile_scores_lowest():
    state = three_device_world()
    state.piles[0] = state.last_collected  # mse 0 -> raw 0
    profile = form_valuations(state)
    assert profile.values[0] == state.config.distribution.lower


def test_form_valuations_degenerate_falls_back_to_midpoint():
    pile = np.full((1, 1, 2), 0.5)
    state = hand_world([Position(10.0, 0.0)] * 3, [pile] * 3, pile)
    # equal similarity and equal distance: zero spread
    profile = form_valuations(state)
    assert np.all(profile.values == state.config.distribution.midpoint)


def test_step_winner_flies_and_swaps_pile():
    state = three_device_world()
    old_pile = state.piles[0].copy()
    new_state, record = step(state, SecondPriceMechanism())
    assert new_state is state
    assert record.mechanism == "spa"
    assert record.outcome.winner == 0
    assert record.outcome.payment == pytest.approx(0.6153846153846154, abs=1e-12)
    assert record.distance_flown == 5.0
    assert state.uav_position == Position(3.0, 4.0)
    assert state.battery == 995.0
    assert (record.uav_position, record.battery) == (Position(3.0, 4.0), 995.0)
    assert np.array_equal(state.last_collected, old_pile)
    assert not np.array_equal(state.piles[0], old_pile)
    assert state.round == 1
    # the reference is a copy: writing the pile array leaves it alone
    assert not np.shares_memory(state.last_collected, state.piles)
    state.piles[:] = 0.25
    assert np.array_equal(state.last_collected, old_pile)


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
    assert state.uav_position == Position(3.0, 4.0)
    assert (record.uav_position, record.battery) == (Position(3.0, 4.0), 0.0)


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


def test_step_requires_charge():
    state = three_device_world(battery=0.0)
    with pytest.raises(EpisodeExhaustedError, match="before round 0"):
        step(state, SecondPriceMechanism())


def test_run_episode_lengths():
    records = run_episode(generate_world(small_config()), SecondPriceMechanism(), 1)
    assert len(records) == 1
    assert records[0].round == 0

    state = generate_world(small_config(battery=float("inf")))
    records = run_episode(state, SecondPriceMechanism(), 10)
    assert len(records) == 10
    assert [r.round for r in records] == list(range(10))


def test_run_episode_rejects_bad_inputs():
    state = generate_world(small_config())
    with pytest.raises(InputError):
        run_episode(state, SecondPriceMechanism(), 0)
    state.battery = 0.0
    with pytest.raises(EpisodeExhaustedError):
        run_episode(state, SecondPriceMechanism(), 5)


def test_run_episode_stops_when_battery_dies():
    state = generate_world(small_config(battery=200.0))
    records = run_episode(state, SecondPriceMechanism(), 50)
    assert len(records) < 50
    assert state.battery == 0.0


def test_episode_battery_and_distance_invariants():
    config = small_config(n_devices=5, battery=900.0, seed=3)
    state = generate_world(config)
    records = run_episode(state, SecondPriceMechanism(), 60)
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
        state = generate_world(small_config(seed=seed, n_devices=4, battery=3000.0))
        for record in run_episode(state, mechanism, 12):
            values = record.valuations.values
            if record.outcome.winner is not None:
                assert record.outcome.winner == int(np.argmax(values))


def test_episode_replays_bitwise_from_seed(tmp_path):
    paths = []
    for tag in ("a", "b"):
        state = generate_world(small_config(seed=21))
        records = run_episode(state, SecondPriceMechanism(), 6)
        path = tmp_path / f"{tag}.jsonl"
        write_episode_events(path, records)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_write_episode_csv_round_trips(tmp_path):
    config = small_config(seed=5, battery=1500.0)
    state = generate_world(config)
    start = state.uav_position
    records = run_episode(state, SecondPriceMechanism(), 5)
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
        assert float(row[5]) == position.x
        assert float(row[6]) == position.y
        assert float(row[7]) == battery
        assert float(row[8]) == record.distance_flown


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
    config = small_config(seed=9)
    state = generate_world(config)
    records = run_episode(state, SecondPriceMechanism(), 3)
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
        assert len(event["valuations"]) == config.n_devices
        assert len(event["allocation"]) == config.n_devices
        assert math.isfinite(event["battery"])


def test_mechanism_names():
    assert SecondPriceMechanism().name == "spa"
    assert LearnedMechanism(MonotoneNetParams.affine(2, 1.0, 0.0)).name == "dla"
