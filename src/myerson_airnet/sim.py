"""Round-based aerial data-collection simulator.

Each round every ground device prices its data from the collector's
current distance and the redundancy of its image pile against the last
pile collected, one auction (learned or second-price) picks a winner,
and the collector relocates to the winner, pays battery in meters flown,
swaps the winner's pile in as the new reference, and the device captures
a fresh pile.  Imagery comes from a seeded smooth value-noise field over
the area, so nearby devices see correlated scenes.

The world is held as arrays: every device's pile is one row of a
``(D, P, R, C)`` array, so a round scores all devices' similarity in one
batched call.  The noise field is built once per world.

All randomness derives from ``WorldConfig.seed`` through fixed
sub-stream tags, so an episode replays bitwise from its seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .auction import AuctionOutcome, ValuationDistribution, ValuationProfile, spa_clear
from .errors import DegenerateProfileError, EpisodeExhaustedError, InputError
from .network import MonotoneNetParams, clear_hard
from .valuation import Position, distance, normalize_profile, pile_similarity, valuation_score

# Sub-stream tags for seed derivation; changing these changes every world.
_TAG_PLACEMENT = 0
_TAG_FIELD = 1
_TAG_PILE = 2
_TAG_SENTINEL = 3
_TAG_REGEN = 4

_LATTICE_N = 17
_CELL_METERS = 120.0
_PIXEL_METERS = 3.0
_IMAGE_JITTER_METERS = 6.0
_PIXEL_NOISE = 0.02


@dataclass(frozen=True)
class WorldConfig:
    """World geometry, imaging, energy, and market parameters."""

    n_devices: int = 5
    area_width: float = 1000.0
    area_height: float = 1000.0
    image_rows: int = 16
    image_cols: int = 16
    pile_size: int = 3
    battery: float = 2500.0
    uav_x: float = 500.0
    uav_y: float = 500.0
    seed: int = 0
    distribution: ValuationDistribution = field(default_factory=ValuationDistribution)
    similarity_aggregate: str = "mean"
    valuation_rule: str = "product"
    max_rounds: int = 40

    def __post_init__(self):
        if self.n_devices < 2:
            raise InputError("a market needs at least two devices")
        for key in ("area_width", "area_height", "uav_x", "uav_y"):
            value = getattr(self, key)
            if not np.isfinite(value):
                raise InputError(f"{key} must be finite, got {value}")
        if self.area_width <= 0.0 or self.area_height <= 0.0:
            raise InputError("area dimensions must be positive")
        if self.image_rows < 1 or self.image_cols < 1:
            raise InputError("image dimensions must be at least 1x1")
        if self.pile_size < 1:
            raise InputError("pile_size must be at least 1")
        if np.isnan(self.battery) or self.battery < 0.0:
            raise InputError("battery must be non-negative")
        if self.seed < 0:
            raise InputError("seed must be a non-negative integer")
        if self.distribution.lower < 0.0:
            raise InputError("simulation needs a non-negative valuation support")
        if self.similarity_aggregate not in ("mean", "min"):
            raise InputError("similarity_aggregate must be 'mean' or 'min'")
        if self.valuation_rule not in ("product", "proximity"):
            raise InputError("valuation_rule must be 'product' or 'proximity'")
        if self.max_rounds < 1:
            raise InputError("max_rounds must be at least 1")


@dataclass
class WorldState:
    """Mutable episode state advanced by :func:`step`.

    Device ``i`` sits at ``positions[i]`` and holds the pile
    ``piles[i]``; ``piles`` is ``(D, P, R, C)`` and ``last_collected``,
    the reference pile, is ``(P, R, C)``, both copied on construction so
    the state owns them.  ``noise`` is the world's imagery field, built
    from ``config.seed``.
    """

    config: WorldConfig
    uav_position: Position
    battery: float
    positions: tuple[Position, ...]
    piles: np.ndarray
    last_collected: np.ndarray
    round: int = 0
    noise: _NoiseField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        config = self.config
        self.positions = tuple(self.positions)
        self.piles = np.array(self.piles, dtype=float)
        self.last_collected = np.array(self.last_collected, dtype=float)
        shape = (config.pile_size, config.image_rows, config.image_cols)
        if len(self.positions) != config.n_devices:
            raise InputError(f"{len(self.positions)} positions for {config.n_devices} devices")
        if self.piles.shape != (config.n_devices, *shape) or self.last_collected.shape != shape:
            raise InputError(f"piles {self.piles.shape} and last_collected "
                             f"{self.last_collected.shape} do not match the config's "
                             f"{config.n_devices} piles of shape {shape}")
        self.noise = _NoiseField(config.seed)


@dataclass(frozen=True)
class RoundRecord:
    """Everything one auction round decided, plus the collector after it."""

    round: int
    valuations: ValuationProfile
    mechanism: str
    outcome: AuctionOutcome
    distance_flown: float
    uav_position: Position
    battery: float


@dataclass(frozen=True)
class SecondPriceMechanism:
    """Truthful baseline: clear the normalized valuations by second price."""

    name: str = field(default="spa", init=False)

    def clear(self, values) -> AuctionOutcome:
        return spa_clear(values)


@dataclass(frozen=True)
class LearnedMechanism:
    """Clear with a trained monotone-net auction."""

    params: MonotoneNetParams
    name: str = field(default="dla", init=False)

    def clear(self, values) -> AuctionOutcome:
        return clear_hard(self.params, values)


class _NoiseField:
    """Seeded value noise: bilinear smoothstep interpolation of a lattice."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, _TAG_FIELD])
        self.lattice = rng.random((_LATTICE_N, _LATTICE_N))

    def sample(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        u = np.asarray(xs, dtype=float) / _CELL_METERS
        v = np.asarray(ys, dtype=float) / _CELL_METERS
        i0 = np.floor(u).astype(int)
        j0 = np.floor(v).astype(int)
        fu = u - i0
        fv = v - j0
        fu = fu * fu * (3.0 - 2.0 * fu)
        fv = fv * fv * (3.0 - 2.0 * fv)
        i0 %= _LATTICE_N
        j0 %= _LATTICE_N
        i1 = (i0 + 1) % _LATTICE_N
        j1 = (j0 + 1) % _LATTICE_N
        lat = self.lattice
        top = lat[i0, j0] * (1.0 - fu) + lat[i1, j0] * fu
        bottom = lat[i0, j1] * (1.0 - fu) + lat[i1, j1] * fu
        return top * (1.0 - fv) + bottom * fv


def _capture_pile(field_: _NoiseField, rng: np.random.Generator, pos: Position,
                  config: WorldConfig) -> np.ndarray:
    """Sample a pile at ``pos``: jittered field windows plus sensor noise."""
    rows, cols = config.image_rows, config.image_cols
    gx = pos.x + (np.arange(cols) - cols / 2.0) * _PIXEL_METERS
    gy = pos.y + (np.arange(rows) - rows / 2.0) * _PIXEL_METERS
    images = []
    for _ in range(config.pile_size):
        ox, oy = rng.uniform(-_IMAGE_JITTER_METERS, _IMAGE_JITTER_METERS, 2)
        mesh_x, mesh_y = np.meshgrid(gx + ox, gy + oy)
        img = field_.sample(mesh_x, mesh_y) + rng.normal(0.0, _PIXEL_NOISE, (rows, cols))
        images.append(np.clip(img, 0.0, 1.0))
    return np.stack(images)


def generate_world(config: WorldConfig) -> WorldState:
    """Place devices uniformly at random and capture their initial piles.

    The collector starts with a sentinel reference pile captured at its
    own start position, so round one already has a meaningful redundancy
    signal.  Deterministic for a given ``config.seed``.
    """
    placement = np.random.default_rng([config.seed, _TAG_PLACEMENT])
    xy = placement.random((config.n_devices, 2))
    xy[:, 0] *= config.area_width
    xy[:, 1] *= config.area_height
    positions = tuple(Position(float(x), float(y)) for x, y in xy)

    start = Position(config.uav_x, config.uav_y)
    shape = (config.pile_size, config.image_rows, config.image_cols)
    state = WorldState(config=config, uav_position=start, battery=float(config.battery),
                       positions=positions, piles=np.empty((config.n_devices, *shape)),
                       last_collected=np.empty(shape))
    for idx, pos in enumerate(positions):
        pile_rng = np.random.default_rng([config.seed, _TAG_PILE, idx])
        state.piles[idx] = _capture_pile(state.noise, pile_rng, pos, config)
    sentinel_rng = np.random.default_rng([config.seed, _TAG_SENTINEL])
    state.last_collected[...] = _capture_pile(state.noise, sentinel_rng, start, config)
    return state


def form_valuations(state: WorldState) -> ValuationProfile:
    """Score every device and normalize onto the market support.

    A zero-spread round (for example, identical piles everywhere) falls
    back to midpoint valuations for every device.
    """
    config = state.config
    # math.hypot per device: np.hypot can differ in the last bit
    dists = np.array([distance(state.uav_position, pos) for pos in state.positions])
    sims = pile_similarity(state.piles, state.last_collected, config.similarity_aggregate)
    raws = valuation_score(sims, dists, config.valuation_rule)
    try:
        return normalize_profile(raws, config.distribution)
    except DegenerateProfileError:
        mid = config.distribution.midpoint
        return ValuationProfile(np.full(len(raws), mid), config.distribution)


def step(state: WorldState, mechanism) -> tuple[WorldState, RoundRecord]:
    """Run one auction round and advance the world in place.

    A winning round flies the collector to the winner (battery floors at
    zero on the final hop), copies the collected pile in as the new
    reference, and recaptures the winner's pile into its row.  A no-sale
    round leaves the collector and battery untouched.  The round counter
    advances either way.
    """
    if state.battery <= 0.0:
        raise EpisodeExhaustedError(f"battery empty before round {state.round}")
    profile = form_valuations(state)
    outcome = mechanism.clear(profile.values)

    flown = 0.0
    winner = outcome.winner
    if winner is not None:
        position = state.positions[winner]
        flown = distance(state.uav_position, position)
        state.uav_position = position
        state.battery = max(0.0, state.battery - flown)
        # a copy, so the recapture below cannot write through to the reference
        state.last_collected = state.piles[winner].copy()
        regen = np.random.default_rng([state.config.seed, _TAG_REGEN, state.round, winner])
        state.piles[winner] = _capture_pile(state.noise, regen, position, state.config)

    record = RoundRecord(round=state.round, valuations=profile, mechanism=mechanism.name,
                         outcome=outcome, distance_flown=flown,
                         uav_position=state.uav_position, battery=state.battery)
    state.round += 1
    return state, record


def run_episode(state: WorldState, mechanism, max_rounds: int) -> list[RoundRecord]:
    """Step until the battery is exhausted or ``max_rounds`` rounds ran.

    Starting with an empty battery is an error; exhausting it mid-episode
    simply ends the episode after the exhausting round.
    """
    if max_rounds < 1:
        raise InputError("max_rounds must be at least 1")
    records = [step(state, mechanism)[1]]  # step raises on an empty battery
    while len(records) < max_rounds and state.battery > 0.0:
        records.append(step(state, mechanism)[1])
    return records


EPISODE_CSV_COLUMNS = ("round", "mechanism", "winner", "payment", "revenue",
                       "uav_x", "uav_y", "battery", "distance_flown")


def write_episode_csv(path, records) -> None:
    """One row per round: outcome plus post-round collector position and battery."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(EPISODE_CSV_COLUMNS)
        for record in records:
            outcome = record.outcome
            winner = -1 if outcome.winner is None else outcome.winner
            writer.writerow([record.round, record.mechanism, winner,
                             repr(float(outcome.payment)), repr(float(outcome.revenue)),
                             repr(record.uav_position.x), repr(record.uav_position.y),
                             repr(record.battery), repr(float(record.distance_flown))])


def write_episode_events(path, records) -> None:
    """Newline-delimited JSON event stream carrying enough detail to replay."""
    lines = []
    for record in records:
        outcome = record.outcome
        lines.append(json.dumps({
            "round": record.round,
            "mechanism": record.mechanism,
            "valuations": [float(v) for v in record.valuations.values],
            "winner": outcome.winner,
            "payment": float(outcome.payment),
            "revenue": float(outcome.revenue),
            "allocation": [float(a) for a in outcome.allocation],
            "uav": [record.uav_position.x, record.uav_position.y],
            "battery": record.battery,
            "distance_flown": float(record.distance_flown),
        }, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
