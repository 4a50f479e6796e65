"""Round-based aerial data-collection simulator.

Each round every ground device prices its data from the collector's
current distance and the redundancy of its image pile against the last
pile collected, one auction (learned or second-price) picks a winner,
and the collector relocates to the winner, pays battery in meters flown,
swaps the winner's pile in as the new reference, and the device captures
a fresh pile.  Imagery comes from a seeded smooth value-noise field over
the area, so nearby devices see correlated scenes.

The world is held as arrays: every device's pile is one row of a
``(D, P, R, C)`` array and its position one row of a ``(D, 2)`` array,
so a round prices all devices' similarity and distance in one batched
call each.  Positions have no writer, so the state also caches their x and
y columns as read-only contiguous copies, made once on construction, and a
round takes its distances from those.  The collector's position is an
``(x, y)`` pair of floats.
The state keeps the piles' similarity terms (each image's squared norm,
each pile's pixel sums and each pile's norm total,
``valuation.pile_terms``) and the reference pile's, so a round reads
``(D, K)`` sums, not every pixel, and sums no norms.  Only the winner's
pile changes in a round, so only its row of terms is recomputed, written
by ``pile_terms``' kernel straight into the cached rows, and the new
reference's are that row's old ones, copied; the arrays are exposed
read-only and change only through one row writer, which keeps the terms
in step: ``WorldState.replace_pile`` and ``WorldState.collect`` check a
pile and call it, and a sold round hands it the state's own capture.
Two noise fields are built from ``config.seed``, equal:
``generate_world``'s for the initial piles and ``WorldState``'s own.  A
field keeps a table of each lattice cell's four wrapped corners, so a
capture reads a pixel's corners with one gather; a capture draws its
jitter and pixel noise straight into its buffers.

A round is checked once, at the ``WorldState`` boundary: the state takes
only positions within the coordinate bound, pixels within ``[0, 1]``
and terms of its own making, so ``form_valuations`` runs the private
kernels behind ``pile_similarity``, ``valuation_score`` and
``normalize_profile`` with no further checks.  Those public calls stay
checked over the same kernels and give the round's bits.  The round's
valuations stay one read-only ``(D,)`` array from ``form_valuations``
through the mechanism's clear to ``RoundRecord.valuations``.

The episode's CSV and event writers write each record's line as it is
formatted, so neither holds its whole output.

All randomness derives from ``WorldConfig.seed`` through ``auction._stream``
and the simulator's five tags of ``auction._TAGS``, so an episode replays
bitwise from its seed.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .auction import (_TAGS, AuctionOutcome, ValuationDistribution, _bound_size, _index, _key,
                      _read_fields, _real, _real_array, _stream, spa_clear)
from .errors import EpisodeExhaustedError, InputError, writing
from .network import MonotoneNetParams, clear_hard
from .valuation import (_AGGREGATES, _RULES, _normalized, _pile_terms, _score, _similarity,
                        distance, pile_terms)

# The round calls none of these checked names; perfbench patches them here to time
# layers, and its hook test pins that they stay bound.  They can go once the package
# times its own stages (ROADMAP item 3).
from .auction import ValuationProfile  # noqa: F401
from .valuation import normalize_profile, pile_similarity, valuation_score  # noqa: F401

_LATTICE_N = 17
_CELL_METERS = 120.0
# Largest |coordinate| a world may name: floor(x / _CELL_METERS) then fits an int64 with
# half its range to spare for a pile's pixel offsets and jitter.
_COORD_LIMIT = _CELL_METERS * 2.0**62
_PIXEL_METERS = 3.0
_IMAGE_JITTER_METERS = 6.0
_PIXEL_NOISE = 0.02


@dataclass(frozen=True)
class WorldConfig:
    """World geometry, imaging, energy, and market parameters."""

    n_devices: int = _key(5, "devices in the simulated world", low=2)
    area_width: float = _key(1000.0, "world width in meters", within=_COORD_LIMIT, above=0)
    area_height: float = _key(1000.0, "world height in meters", within=_COORD_LIMIT, above=0)
    image_rows: int = _key(16, "image height in pixels", low=1)
    image_cols: int = _key(16, "image width in pixels", low=1)
    pile_size: int = _key(3, "images per pile", low=1)
    battery: float = _key(2500.0, "battery budget in meters of flight", low=0)
    uav_x: float = _key(500.0, "collector start x", within=_COORD_LIMIT)
    uav_y: float = _key(500.0, "collector start y", within=_COORD_LIMIT)
    seed: int = _key(0, "master RNG seed", low=0)
    distribution: ValuationDistribution = field(default_factory=ValuationDistribution)
    max_rounds: int = _key(40, "episode round cap", low=1)
    similarity_aggregate: str = _key("mean", "pile similarity aggregation: "
                                     + " or ".join(_AGGREGATES), choices=_AGGREGATES)
    valuation_rule: str = _key("product", "raw valuation rule: " + " or ".join(_RULES),
                               choices=_RULES)

    def __post_init__(self):
        _read_fields(self)
        # Generating a world peaks near three copies of its pixels.  The largest world a
        # golden, demo or perfbench workload runs, 200 * 3 * 16 * 16, is 218x below the bound.
        _bound_size(self.n_devices * self.pile_size * self.image_rows * self.image_cols,
                    "n_devices * pile_size * image_rows * image_cols", "the world's piles",
                    "pixels")
        # An episode holds one record per round.  The largest a golden, demo or perfbench
        # workload runs, 1,000 rounds of 200 devices, is 168x below the bound.
        _bound_size(self.max_rounds * self.n_devices, "max_rounds * n_devices",
                    "an episode's held valuations")
        if self.distribution.lower < 0.0:
            raise InputError(f"the valuation support must be non-negative, got "
                             f"dist_lower = {self.distribution.lower}")


class WorldState:
    """Mutable episode state advanced by :func:`step`.

    The collector starts at the config's ``(uav_x, uav_y)``, held as
    ``uav_position``, a pair of floats, with its ``battery`` at round 0,
    and :func:`run_episode` stops at its ``max_rounds``.  Device ``i``
    sits at ``positions[i]`` and holds the pile ``piles[i]``;
    ``positions`` is ``(D, 2)``, ``piles`` is ``(D, P, R, C)`` and
    ``last_collected``, the reference pile, is ``(P, R, C)``, all copied
    on construction so the state owns them.

    The state is the round's one boundary: everything a round reads is
    checked where it enters the state, so :func:`form_valuations` prices
    it unchecked.  Every coordinate, ``uav_position`` included whenever
    it is set, is a real number, finite and within the bound the config
    puts on its own, and every pixel lies in ``[0, 1]``.  ``positions``,
    ``piles``, ``last_collected``, ``terms`` (the piles' cached
    :func:`~myerson_airnet.valuation.pile_terms`, the triple of norms,
    sums and norm totals) and ``reference_terms`` (the reference's triple,
    one row of a stack's, its total a 0-d array) are read-only views (a
    write through them raises ``ValueError``, also on a copy of the
    state); :meth:`replace_pile` and :meth:`collect` are their writers,
    and refuse a ``device`` that indexes no row, or a bad pile, before any write.
    ``noise`` is the world's imagery field, built from ``config.seed``.
    """

    def __init__(self, config: WorldConfig, positions, piles, last_collected):
        self.config = config
        self.uav_position = (config.uav_x, config.uav_y)
        self.battery = float(config.battery)
        self._positions = np.array(_real_array(positions, "positions"))
        self._piles = np.array(_real_array(piles, "piles"))
        self._last_collected = np.array(_real_array(last_collected, "last_collected"))
        self.round = 0
        shape = (config.pile_size, config.image_rows, config.image_cols)
        if self._positions.shape != (config.n_devices, 2):
            raise InputError(f"positions {self._positions.shape} do not match the config's "
                             f"{config.n_devices} devices of (x, y)")
        if not np.all(np.abs(self._positions) <= _COORD_LIMIT):  # also false for nan
            raise InputError(f"positions must be finite and at most {_COORD_LIMIT:g} "
                             f"in magnitude")
        if self._piles.shape != (config.n_devices, *shape) or self._last_collected.shape != shape:
            raise InputError(f"piles {self._piles.shape} and last_collected "
                             f"{self._last_collected.shape} do not match the config's "
                             f"{config.n_devices} piles of shape {shape}")
        _require_pixels("piles", self._piles)
        _require_pixels("last_collected", self._last_collected)
        # Positions have no writer, so the round reads distances from fixed x and y columns.
        columns = self._positions.T.copy()
        columns.flags.writeable = False
        self._xs, self._ys = columns
        self._terms = pile_terms(self._piles)
        self._reference_terms = tuple(term[0, ...] for term in
                                      pile_terms(self._last_collected[None]))
        self.noise = _NoiseField(config.seed)

    @property
    def uav_position(self) -> tuple[float, float]:
        return self._uav_position

    @uav_position.setter
    def uav_position(self, position) -> None:
        x, y = _real(position[0], "uav_position"), _real(position[1], "uav_position")
        if not (abs(x) <= _COORD_LIMIT and abs(y) <= _COORD_LIMIT):  # also false for nan
            raise InputError(f"uav_position must be finite and at most {_COORD_LIMIT:g} "
                             f"in magnitude, got {(x, y)}")
        self._uav_position = (x, y)

    @property
    def positions(self) -> np.ndarray:
        return _read_only(self._positions)

    @property
    def piles(self) -> np.ndarray:
        return _read_only(self._piles)

    @property
    def last_collected(self) -> np.ndarray:
        return _read_only(self._last_collected)

    @property
    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(map(_read_only, self._terms))

    @property
    def reference_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(map(_read_only, self._reference_terms))

    def replace_pile(self, device: int, pile) -> None:
        """Write ``pile`` into ``device``'s row and recompute that row's terms."""
        self._write_row(*self._checked(device, pile), collect=False)

    def collect(self, device: int, pile) -> None:
        """Make ``device``'s pile the reference, with its cached terms, and ``pile`` its new one.

        A pile's terms alone equal its row of the stack's, so the
        reference's terms are copied, not recomputed.  Nothing changes if
        ``device`` or ``pile`` is refused.
        """
        self._write_row(*self._checked(device, pile), collect=True)

    def _checked(self, device, pile) -> tuple[int, np.ndarray]:
        """``device`` as a row's index and ``pile`` as a row's floats in ``[0, 1]``, or refused."""
        device = _index(device, self.config.n_devices, "device")
        pile = _real_array(pile, "pile")
        if pile.shape != self._piles.shape[1:]:
            raise InputError(f"pile {pile.shape} does not match the piles' "
                             f"{self._piles.shape[1:]}")
        _require_pixels("pile", pile)
        return device, pile

    def _write_row(self, device: int, pile: np.ndarray, collect: bool) -> None:
        """Write ``pile``, checked or the state's own capture, into the row with its terms;
        if ``collect``, the row's old pile and terms first become the reference."""
        norms, sums, totals = self._terms
        if collect:
            self._last_collected = self._piles[device].copy()
            self._reference_terms = (norms[device].copy(), sums[device].copy(),
                                     totals[device, ...].copy())
        row = slice(device, device + 1)
        self._piles[row] = pile
        _pile_terms(self._piles[row], norms[row], sums[row], totals[row])


def _require_pixels(key: str, pile: np.ndarray) -> None:
    if not (pile.min() >= 0.0 and pile.max() <= 1.0):  # also false for nan
        raise InputError(f"{key} must hold pixels within [0, 1]")


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class RoundRecord:
    """Everything one auction round decided, plus the collector after it.

    ``valuations`` is the read-only values array the mechanism cleared.
    """

    round: int
    valuations: np.ndarray
    mechanism: str
    outcome: AuctionOutcome
    distance_flown: float
    uav_position: tuple[float, float]
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
    """Seeded value noise: bilinear smoothstep interpolation of a lattice.

    The lattice wraps every ``N = _LATTICE_N`` cells.  Row ``i * N + j``
    of the ``(N*N, 4)`` corner table holds the lattice values at the four
    corners of cell ``(i, j)``: ``(i, j)``, ``(i+1, j)``, ``(i, j+1)`` and
    ``(i+1, j+1)``, each index taken mod ``N``.  A sample gathers every
    pixel's row with one ``take`` and blends the corners with the
    smoothstep weights, products and sums in a fixed order, so its bits
    equal a 2-D index of the lattice at each corner.  A coordinate's cell
    and weight depend on its axis alone (:func:`_cells`), so a capture finds
    both axes' in one pass and blends them (:meth:`blend`).
    """

    def __init__(self, seed: int):
        rng = _stream(seed, _TAGS["field"])
        self.lattice = rng.random((_LATTICE_N, _LATTICE_N))
        lat, wrap = self.lattice, np.roll(np.arange(_LATTICE_N), -1)
        self._corners = np.stack([lat, lat[wrap], lat[:, wrap], lat[wrap][:, wrap]],
                                 axis=-1).reshape(_LATTICE_N * _LATTICE_N, 4)

    def sample(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return self.blend(*_cells(xs), *_cells(ys))

    def blend(self, i0: np.ndarray, fu: np.ndarray, j0: np.ndarray, fv: np.ndarray) -> np.ndarray:
        """The field at broadcast x cells ``i0`` and y cells ``j0``, weighted ``fu`` and ``fv``."""
        corners = self._corners.take(i0 * _LATTICE_N + j0, axis=0)
        gu = 1.0 - fu
        top = corners[..., 0] * gu + corners[..., 1] * fu
        bottom = corners[..., 2] * gu + corners[..., 3] * fu
        return top * (1.0 - fv) + bottom * fv


def _cells(coords) -> tuple[np.ndarray, np.ndarray]:
    """Each coordinate's lattice cell, mod ``N``, and its smoothstep weight within the cell."""
    t = np.asarray(coords, dtype=float) / _CELL_METERS
    t0 = np.floor(t)
    cell = t0.astype(int)
    cell %= _LATTICE_N
    t -= t0  # t - cell, but for a -0.0 t, whose sign the smoothstep squares away
    return cell, t * t * (3.0 - 2.0 * t)


@functools.lru_cache(maxsize=16)
def _pixel_offsets(n: int) -> np.ndarray:
    """Each of ``n`` pixels' offset in meters from an image's centre, read-only."""
    return _read_only((np.arange(n) - n / 2.0) * _PIXEL_METERS)


def _capture_pile(field_: _NoiseField, rng: np.random.Generator, pos,
                  config: WorldConfig) -> np.ndarray:
    """Sample a pile at the ``(x, y)`` point ``pos``: jittered field windows plus sensor noise.

    Each image draws its jitter, then its pixel noise, straight into the
    pile's buffers; the draws are then scaled onto their ranges as
    ``uniform`` and ``normal`` scale them, ``loc + scale * x`` (the
    ``+ 0.0`` keeps ``normal``'s sign of zero), and the field is sampled
    once for the whole pile, from pixel offsets computed once per size: each
    image's x then y coordinates are one row of a ``(P, C + R)`` array, whose
    cells are found in one pass.  The clipped pile is one the state takes
    unchecked.
    """
    rows, cols, size = config.image_rows, config.image_cols, config.pile_size
    jitter = np.empty((size, 2))
    noise = np.empty((size, rows, cols))
    for k in range(size):
        rng.random(out=jitter[k])
        rng.standard_normal(out=noise[k])
    jitter *= 2.0 * _IMAGE_JITTER_METERS
    jitter += -_IMAGE_JITTER_METERS
    noise *= _PIXEL_NOISE
    noise += 0.0
    grid = np.concatenate((pos[0] + _pixel_offsets(cols), pos[1] + _pixel_offsets(rows)))
    cell, weight = _cells(grid + jitter.repeat((cols, rows), axis=1))
    pile = field_.blend(cell[:, None, :cols], weight[:, None, :cols],
                        cell[:, cols:, None], weight[:, cols:, None])
    pile += noise
    return pile.clip(0.0, 1.0, out=pile)  # np.clip's own method, without its wrappers


def generate_world(config: WorldConfig) -> WorldState:
    """Place devices uniformly at random and capture their initial piles.

    The collector starts with a sentinel reference pile captured at its
    own start position, so round one already has a meaningful redundancy
    signal.  Deterministic for a given ``config.seed``.
    """
    placement = _stream(config.seed, _TAGS["placement"])
    xy = placement.random((config.n_devices, 2))
    xy[:, 0] *= config.area_width
    xy[:, 1] *= config.area_height

    noise = _NoiseField(config.seed)
    piles = [_capture_pile(noise, _stream(config.seed, _TAGS["pile"], idx), pos, config)
             for idx, pos in enumerate(xy)]
    sentinel = _capture_pile(noise, _stream(config.seed, _TAGS["sentinel"]),
                             (config.uav_x, config.uav_y), config)
    return WorldState(config=config, positions=xy, piles=piles, last_collected=sentinel)


def form_valuations(state: WorldState) -> np.ndarray:
    """Score every device and normalize onto the market support, as a read-only ``(D,)`` array.

    Runs the kernels behind ``pile_similarity``, ``valuation_score`` and
    ``normalize_profile`` on the state's own arrays and cached terms,
    with the same bits as those checked calls: the state checked its
    inputs where it took them.  A zero-spread round (for example,
    identical piles everywhere) falls back to midpoint valuations for
    every device.
    """
    config = state.config
    x, y = state.uav_position
    dists = np.hypot(x - state._xs, y - state._ys)
    sims = _similarity(state._piles, state._last_collected, state._terms,
                       state._reference_terms, config.similarity_aggregate)
    values = _normalized(_score(sims, dists, config.valuation_rule), config.distribution)
    if values is None:
        values = np.full(dists.shape, config.distribution.midpoint)
    values.flags.writeable = False
    return values


def step(state: WorldState, mechanism) -> tuple[WorldState, RoundRecord]:
    """Run one auction round and advance the world in place.

    A winning round flies the collector to the winner (battery floors at
    zero on the final hop), copies the collected pile in as the new
    reference, and recaptures the winner's pile, and its terms, into its
    row.  A no-sale round leaves the collector and battery untouched.  The
    round counter advances either way.
    """
    if state.battery <= 0.0:
        raise EpisodeExhaustedError(f"battery empty before round {state.round}")
    values = form_valuations(state)
    outcome = mechanism.clear(values)

    flown = 0.0
    winner = outcome.winner
    if winner is not None:
        position = tuple(state._positions[winner].tolist())
        flown = distance(state.uav_position, position)
        state.uav_position = position
        state.battery = max(0.0, state.battery - flown)
        regen = _stream(state.config.seed, _TAGS["regen"], state.round, winner)
        state._write_row(winner, _capture_pile(state.noise, regen, position, state.config),
                         collect=True)

    record = RoundRecord(round=state.round, valuations=values, mechanism=mechanism.name,
                         outcome=outcome, distance_flown=flown,
                         uav_position=state.uav_position, battery=state.battery)
    state.round += 1
    return state, record


def run_episode(state: WorldState, mechanism) -> list[RoundRecord]:
    """Step until the battery is exhausted or ``state.config.max_rounds`` rounds ran.

    Starting with an empty battery is an error; exhausting it mid-episode
    simply ends the episode after the exhausting round.
    """
    records = [step(state, mechanism)[1]]  # step raises on an empty battery
    while len(records) < state.config.max_rounds and state.battery > 0.0:
        records.append(step(state, mechanism)[1])
    return records


EPISODE_CSV_COLUMNS = ("round", "mechanism", "winner", "payment", "revenue",
                       "uav_x", "uav_y", "battery", "distance_flown")


def write_episode_csv(path, records) -> None:
    """One row per round: outcome plus post-round collector position and battery."""
    with writing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EPISODE_CSV_COLUMNS)
        for record in records:
            outcome = record.outcome
            winner = -1 if outcome.winner is None else outcome.winner
            writer.writerow([record.round, record.mechanism, winner,
                             repr(float(outcome.payment)), repr(float(outcome.revenue)),
                             *(repr(float(c)) for c in record.uav_position),
                             repr(float(record.battery)), repr(float(record.distance_flown))])


def write_episode_events(path, records) -> None:
    """Newline-delimited JSON event stream carrying enough detail to replay: one compact
    ``json.dumps`` and a newline per record, no records an empty file.  Each line is written
    as soon as it is formatted, so a failure leaves the lines before it in ``path``; a caller
    that needs all or nothing writes to a temp path, as ``simulate`` does."""
    with writing(path) as handle:
        for record in records:
            outcome = record.outcome
            allocation = [0.0] * record.valuations.size
            if outcome.winner is not None:
                allocation[outcome.winner] = 1.0
            handle.write(json.dumps({
                "round": record.round,
                "mechanism": record.mechanism,
                "valuations": record.valuations.tolist(),
                "winner": outcome.winner,
                "payment": float(outcome.payment),
                "revenue": float(outcome.revenue),
                "allocation": allocation,
                "uav": list(record.uav_position),
                "battery": record.battery,
                "distance_flown": float(record.distance_flown),
            }, separators=(",", ":")) + "\n")
