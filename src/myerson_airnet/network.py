"""Learned single-item auction built from monotone bid transforms.

Each bidder owns a piecewise-linear max-min network: ``K`` groups of
``J`` increasing affine pieces ``exp(theta) * v + beta``, combined as
``max over groups of min over pieces``.  Slopes are parameterized as
``exp(theta)`` so every piece is strictly increasing, which makes the
transform invertible in closed form: the inverse of ``y`` is ``min over
groups of max over pieces`` of ``(y - beta) * exp(-theta)``, the one
inverse formula every payment here uses.

The hard clear is second price with a zero reserve on transformed bids
(MyersonNet; Dütting et al., 2019): the top positive transformed bid wins
and pays the inverse transform of the rectified top rival bid.
:func:`clear_hard` clears a profile and :func:`clear_batch` an ``(S, N)``
batch on the same piece kernels and the analytic clears' second-price
kernel, so both pay the same bits, and ``+0.0``, never ``-0.0``, for a
zero price.

Training has a batch forward of its own: every bidder's conditional
payment and a softmax, with temperature ``kappa``, against a no-sale
slot pinned at 0.  It minimizes the negative expected revenue of
truthful play by plain gradient descent.  Gradients are assembled by
hand: argmax/argmin selections route subgradients through the active
piece only (ties to the lowest index, matching the forward tie-break),
the softmax and ReLU use their standard derivatives, and ``exp``
reparameterization turns weight gradients into ``w * dL/dw``.  A
``kappa`` passed in is read as ``NetConfig``'s field reads it, and a
bidder index by ``auction._index``.

One layout holds every parameter and piece: units, groups, bidders
``(J, K, N)``, a batch's samples innermost.  A parameter set is immutable:
it stores read-only ``theta``, ``beta`` and the slopes ``exp(theta)`` and
``exp(-theta)``, computed once, in that layout; its public ``theta`` and
``beta``, of shape ``(n_bidders, groups, linear_units)``, are transposed
views.  On its first :func:`clear_hard` a set also caches its inverse
rows, read-only per-bidder ``(N, J, K)`` copies of ``exp(-theta)`` and
``beta``, so a payment reads contiguous rows; ``train``'s per-step sets
never build them.  Pieces are ``(J, K, N)`` for a profile and
``(J, K, N, S)`` for a batch, reduced over leading axes.  Training also
needs each active piece's cell, its flat index in that layout: it takes
the first group whose reduction is the best and the first unit of that
group that is, and gathers the piece itself, so the choice, the sign of a
zero and a NaN's bits are ``np.argmin``'s and ``np.argmax``'s.  Training keeps
samples innermost all the way to the gradient: the transformed bids,
rivals, payments, softmax columns and backward terms are ``(N, S)``
arrays, so every reduction over bidders is a few whole-row operations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .auction import (_SIZE_LIMIT, _TAGS, AuctionOutcome, ValuationDistribution, _at_least,
                      _bound_size, _finite, _finite_array, _index, _integer, _key, _read_fields,
                      _read_value, _second_price, _stream)
from .errors import InputError, TrainingDivergedError

DEFAULT_KAPPA = 100.0


def _checked_kappa(kappa) -> float:
    """The softmax temperature, read as ``NetConfig``'s ``kappa`` field reads it."""
    return _read_value(NetConfig.__dataclass_fields__["kappa"], "kappa", kappa)


@dataclass(frozen=True, eq=False)
class MonotoneNetParams:
    """Per-bidder log-slopes and offsets, plus the softmax temperature.

    Immutable: ``theta`` and ``beta`` are read-only views of ``(J, K, N)``
    copies, in which the slopes ``exp(theta)`` and ``exp(-theta)`` are
    computed once, here; the inverse rows a clear pays from are built on
    first use.  A changed net is a new parameter set.
    """

    theta: np.ndarray
    beta: np.ndarray
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        # C-ordered (J, K, N) copies: units, groups, bidders.
        theta = _finite_array(self.theta, "theta").T.copy()
        beta = _finite_array(self.beta, "beta").T.copy()
        if theta.ndim != 3 or theta.shape != beta.shape:
            raise InputError("theta and beta must share shape (n_bidders, groups, linear_units)")
        if min(theta.shape) < 1:
            raise InputError("every parameter dimension must be at least 1")
        with np.errstate(over="ignore"):  # an inf slope clears; train refuses one
            w, w_inv = np.exp(theta), np.exp(-theta)
        for array in (theta, beta, w, w_inv):
            array.flags.writeable = False
        for name, array in (("theta", theta.T), ("beta", beta.T), ("_w", w),
                            ("_w_inv", w_inv), ("_beta", beta)):
            object.__setattr__(self, name, array)
        object.__setattr__(self, "kappa", _checked_kappa(self.kappa))

    def __reduce__(self):
        # A copy or an unpickled set is built anew, so its arrays stay read-only,
        # its slopes stay those of its theta and its inverse rows are rebuilt.
        return type(self), (self.theta, self.beta, self.kappa)

    @functools.cached_property
    def _inverse_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only C-ordered ``(N, J, K)`` copies of ``_w_inv`` and ``_beta``, made on the
        first clear, so a winner's payment reads two contiguous ``(J, K)`` rows."""
        rows = tuple(np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (self._w_inv, self._beta))
        for array in rows:
            array.flags.writeable = False
        return rows

    @property
    def n_bidders(self) -> int:
        return self.theta.shape[0]

    @property
    def groups(self) -> int:
        return self.theta.shape[1]

    @property
    def linear_units(self) -> int:
        return self.theta.shape[2]

    def weights(self) -> np.ndarray:
        """The slopes ``exp(theta)``, a read-only view of the cached ones."""
        return self._w.T

    @classmethod
    def affine(cls, n_bidders: int, weight: float, offset: float,
               kappa: float = DEFAULT_KAPPA) -> "MonotoneNetParams":
        """Single-piece network ``weight * b + offset`` shared by all bidders."""
        weight = _finite(weight, "affine weight")
        if weight <= 0.0:
            raise InputError("affine weight must be positive")
        n_bidders = _integer(n_bidders, "n_bidders")
        _at_least(1, n_bidders=n_bidders)
        shape = (n_bidders, 1, 1)
        theta = np.full(shape, np.log(weight))
        beta = np.full(shape, _finite(offset, "affine offset"))
        return cls(theta, beta, kappa)


@dataclass(frozen=True)
class NetConfig:
    """Architecture and training hyperparameters."""

    n_bidders: int = _key(5, "number of bidders / devices", low=2)
    groups: int = _key(5, "max-min groups per bidder", low=1)
    linear_units: int = _key(3, "affine pieces per group", low=1)
    kappa: float = _key(DEFAULT_KAPPA, "softmax temperature", above=0)
    learning_rate: float = _key(0.35, "gradient-descent step size", above=0)
    batch_size: int = _key(768, "training batch size", low=1)
    iterations: int = _key(500, "training iterations", low=1)
    convergence_tol: float = _key(
        0.0, "early-stop loss range over 20 iterations (0 disables)", low=0)
    seed: int = _key(0, "master RNG seed", low=0)

    def __post_init__(self):
        _read_fields(self)
        _bound_size(self.linear_units * self.groups * self.n_bidders * self.batch_size,
                    "linear_units * groups * n_bidders * batch_size", "a training batch's pieces")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration losses plus where (if anywhere) early stopping fired."""

    losses: np.ndarray
    converged_at: int | None


def init_params(config: NetConfig, rng: np.random.Generator) -> MonotoneNetParams:
    """Near-identity start: slopes around 1, offsets drawn from [-0.5, 0)."""
    shape = (config.n_bidders, config.groups, config.linear_units)
    theta = rng.normal(0.0, 0.1, shape)
    beta = rng.uniform(-0.5, 0.0, shape)
    return MonotoneNetParams(theta, beta, config.kappa)


# Piece kernels of the clears, on a parameter set's cached slopes and offsets:
# ``(J, K)`` or ``(J, K, N)`` against a scalar or an ``(N,)`` row, ``(J, K, N, 1)``
# against an ``(N, S)`` block, ``(J, K, S)`` (the winners') against ``(S,)`` rivals.
# A slice or a gather of the C-ordered cache keeps its axis order, and a block is
# transposed to C order, so the pieces are C-ordered too, and each reduction scans a
# leading axis.

def _transformed(w: np.ndarray, beta: np.ndarray, v) -> np.ndarray:
    """Transform of ``v``: pieces ``w * v + beta``, min over units, max over groups."""
    pieces = w * v
    pieces += beta
    return np.maximum.reduce(np.minimum.reduce(pieces))


def _inverted(w_inv: np.ndarray, beta: np.ndarray, y) -> np.ndarray:
    """Inverse of ``y``: pieces ``(y - beta) * w_inv``, max over units, min over groups."""
    pieces = y - beta
    pieces *= w_inv
    return np.minimum.reduce(np.maximum.reduce(pieces))


def transform(params: MonotoneNetParams, bidder: int, bid: float) -> float:
    """Strictly increasing max-min transform of one bidder's bid."""
    bidder = _index(bidder, params.n_bidders, "bidder index")
    bid = _finite(bid, "bid")
    return float(_transformed(params._w[..., bidder], params._beta[..., bidder], bid))


def transform_inverse(params: MonotoneNetParams, bidder: int, y: float) -> float:
    """Exact inverse of :func:`transform`: min over groups of max over pieces."""
    bidder = _index(bidder, params.n_bidders, "bidder index")
    y = _finite(y, "transformed bid")
    return float(_inverted(params._w_inv[..., bidder], params._beta[..., bidder], y))


def _softmax_no_sale(tbar: np.ndarray, kappa: float) -> np.ndarray:
    """Column softmax of ``kappa * [tbar; 0]`` for ``(N, S)`` transformed bids.

    Row ``N`` is the no-sale slot.  A column whose first bid is NaN takes
    ``+NaN`` as its maximum, as a row maximum starting at a NaN does, so a
    NaN's sign bit does not depend on the layout.
    """
    z = kappa * np.concatenate([tbar, np.zeros((1, tbar.shape[1]))])
    top = z.max(axis=0)
    np.copyto(top, np.nan, where=np.isnan(z[0]))
    z -= top
    ez = np.exp(z)
    return ez / ez.sum(axis=0)


def allocate_soft(transformed_bids, kappa: float) -> np.ndarray:
    """Softmax win probabilities against a no-sale slot pinned at 0.

    Returns the bidder entries only; the no-sale slot keeps the leftover
    mass so the full vector sums to one.
    """
    tb = _finite_array(transformed_bids, "transformed bids")
    if tb.ndim != 1 or tb.size < 1:
        raise InputError("need at least one transformed bid")
    return _softmax_no_sale(tb[:, None], _checked_kappa(kappa))[:-1, 0]


def clear_hard(params: MonotoneNetParams, bids) -> AuctionOutcome:
    """Deterministic clearing: highest positive transformed bid wins.

    The winner pays the inverse transform of the rectified top rival bid,
    which is independent of its own bid, so truthful reporting is a
    dominant strategy.
    """
    b = _finite_array(bids, "bids")
    if b.size < 2:
        raise InputError("clearing needs at least two bids")
    if b.ndim != 1 or b.size != params.n_bidders:
        raise InputError(f"expected {params.n_bidders} bids, got shape {b.shape}")
    winner, top, rival = _second_price(_transformed(params._w, params._beta, b))
    # Python floats, as they compare faster than numpy scalars, with the same bits.
    if not float(top) > 0.0:
        return AuctionOutcome(None, 0.0)
    rival = max(float(rival), 0.0)  # a -0.0 or NaN rival stays as it is
    if not math.isfinite(rival):
        raise InputError("transformed bid must be finite")
    w_inv, beta = params._inverse_rows
    payment = _inverted(w_inv[winner], beta[winner], rival)
    return AuctionOutcome(int(winner), float(payment) + 0.0)


# Most rows per clear_batch block.  It bounds the temporaries (about 0.6 MB of
# pieces a block at the default net), so memory does not grow with the batch; a
# wider net gets fewer rows, so a block never holds more than _SIZE_LIMIT pieces.
_CLEAR_BLOCK = 1024


def clear_batch(params: MonotoneNetParams, values) -> tuple[np.ndarray, np.ndarray]:
    """:func:`clear_hard` for every row of an ``(S, N)`` valuation batch.

    A block of rows runs :func:`clear_hard`'s kernels and rules on whole rows,
    so each row's winner and payment are :func:`clear_hard`'s, bit for bit;
    a row with no sale has winner ``-1`` and payment ``0.0``.
    """
    if params.n_bidders < 2:
        raise InputError("clearing needs at least two bids")
    values = _batch_values(params, values)
    winner = np.empty(values.shape[0], dtype=np.intp)
    payment = np.empty(values.shape[0])
    rows = min(_CLEAR_BLOCK, max(1, _SIZE_LIMIT // params._w.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, values.shape[0], rows):
            block = slice(start, start + rows)
            win, top, rival = _second_price(_transformed(
                params._w[..., None], params._beta[..., None],
                np.ascontiguousarray(values[block].T)).T)
            sold = top > 0.0
            rival = np.where(rival < 0.0, 0.0, rival)  # max(rival, 0.0): -0.0 and NaN stay
            if not np.isfinite(rival[sold]).all():
                raise InputError("transformed bid must be finite")
            price = _inverted(params._w_inv[..., win], params._beta[..., win], rival) + 0.0
            winner[block] = np.where(sold, win, -1)
            payment[block] = np.where(sold, price, 0.0)
    return winner, payment


def _batch_values(params: MonotoneNetParams, batch) -> np.ndarray:
    """Check an (S, N) valuation matrix."""
    values = _finite_array(batch, "batch values")
    if values.ndim != 2 or values.shape[0] < 1:
        raise InputError("batch must be a non-empty matrix of valuations")
    if values.shape[1] != params.n_bidders:
        raise InputError(f"batch has {values.shape[1]} bidders, params expect {params.n_bidders}")
    return values


def _first_hit(a: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Index of the first entry along ``a``'s leading axis that equals ``best``.

    A NaN counts as a hit, so for ``best`` reduced from ``a`` by ``np.minimum``
    (``np.maximum``) this is ``np.argmin``'s (``np.argmax``'s) choice: the first
    extreme, or the first NaN.  The index is the count of leading misses: it
    is summed in the smallest unsigned type that holds it, several times
    faster than an ``intp`` sum, and returned as ``intp``, so index arithmetic
    on it cannot wrap.
    """
    miss = a != best
    miss &= a == a
    for i in range(1, len(miss)):
        miss[i] &= miss[i - 1]
    count = np.add.reduce(miss.view(np.uint8), axis=0, dtype=np.min_scalar_type(len(miss)))
    return count.astype(np.intp)


def _active_piece(pieces: np.ndarray, inner, outer):
    """Active piece of ``(J, K, N, S)`` pieces: its ``(N, S)`` value and cell.

    ``outer`` selects over groups of ``inner`` over units; each is
    ``np.minimum`` or ``np.maximum``.  The group is the first whose reduction
    is the best, and the unit the first of that group's that is, as
    :func:`_first_hit` finds them.  The value is gathered from the chosen
    piece, so its sign of zero and its NaN bits survive.  A cell is the flat
    index of the piece's ``(unit, group, bidder)`` entry in the parameter cache.
    """
    n_bidders, n_samples = pieces.shape[2:]
    over_units = inner.reduce(pieces)
    best = outer.reduce(over_units)
    group = _first_hit(over_units, best)
    # Flat index of each chosen piece within a unit's (K, N, S) slice, then within pieces.
    at = np.arange(n_bidders * n_samples).reshape(n_bidders, n_samples)
    at += group * (n_bidders * n_samples)
    unit = _first_hit(pieces.reshape(len(pieces), -1).take(at, axis=1), best)
    at += unit * over_units.size
    return pieces.take(at), at // n_samples


def _top_rival(tbar: np.ndarray):
    """Index and value of each bidder's highest rival bid, ties to the lowest index.

    A top-2 reduction over the bidders of ``(N, S)`` bids: the top bidder
    faces the best of the rest, and every other bidder faces the top bid.
    """
    cols = np.arange(tbar.shape[1])
    first = tbar.argmax(axis=0)
    rest = tbar.copy()
    rest[first, cols] = -np.inf
    second = rest.argmax(axis=0)
    is_top = np.arange(tbar.shape[0])[:, None] == first
    return np.where(is_top, second, first), np.where(is_top, rest[second, cols], tbar[first, cols])


def _forward(params: MonotoneNetParams, values: np.ndarray, kappa: float):
    """Training's batch pass: ``(loss, g, forward)``, ``g`` the bidders' win probabilities.

    ``forward`` is ``tbar, rarg, rmax, p`` and the forward and inverse active
    pieces' cells (see :func:`_active_piece`), all ``(N, S)`` like ``g``.
    """
    # Pieces are laid out (J, K, N, S), the parameters' layout with samples
    # innermost: numpy reduces a short trailing axis row by row, but reduces
    # and compares a short leading one in a few whole-slice operations.  The
    # forward and inverse pieces share one buffer, because each fresh
    # pieces-sized temporary costs page faults.
    with np.errstate(over="ignore", invalid="ignore"):
        beta = params._beta[..., None]
        pieces = np.empty(beta.shape[:3] + values.shape[:1])
        np.copyto(pieces, values.T)  # an in-place product is about twice a broadcasting one
        pieces *= params._w[..., None]
        pieces += beta
        tbar, fwd_cell = _active_piece(pieces, np.minimum, np.maximum)
        rarg, rmax = _top_rival(tbar)
        np.copyto(pieces, np.maximum(rmax, 0.0))
        pieces -= beta
        pieces *= params._w_inv[..., None]
        p, inv_cell = _active_piece(pieces, np.maximum, np.minimum)
        g = _softmax_no_sale(tbar, kappa)[:-1]
        return float(-(g * p).sum(axis=0).mean()), g, (tbar, rarg, rmax, p, fwd_cell, inv_cell)


def loss(params: MonotoneNetParams, batch, kappa: float) -> float:
    """Mean negative expected revenue of truthful play over the batch."""
    return _forward(params, _batch_values(params, batch), _checked_kappa(kappa))[0]


def grad(params: MonotoneNetParams, batch, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Hand-assembled ``(dL/dtheta, dL/dbeta)`` for :func:`loss`."""
    return _loss_and_grad(params, _batch_values(params, batch), _checked_kappa(kappa))[1:]


def _loss_and_grad(params: MonotoneNetParams, values: np.ndarray, kappa: float):
    with np.errstate(over="ignore", invalid="ignore"):
        loss_value, g, (_, rarg, rmax, p, fwd_cell, inv_cell) = _forward(params, values, kappa)
        w = params._w.ravel()  # flat views, which the cells index
        w_inv = params._w_inv.ravel()
        n_samples = values.shape[0]

        scale = 1.0 / n_samples
        dp = -g * scale
        dg = -p * scale

        # Softmax backward over the bidder slots: the no-sale slot earns no
        # revenue and carries no parameters, so it adds nothing to either term.
        inner = (dg * g).sum(axis=0)
        dtbar = kappa * g * (dg - inner)

        # Payment backward through the active inverse piece:
        #   p = (r - beta) * exp(-theta)  =>  dp/dr = exp(-theta) = -dp/dbeta, dp/dtheta = -p.
        dr = dp * w_inv[inv_cell]
        dtheta_inv = dp * (-p)
        dbeta_inv = -dr

        # ReLU gate, then route the rival maximum to the bidder that set it.
        # A one-dimensional add.at is numpy's fast path, and it adds each
        # entry's terms in bidder order.
        drmax = np.where(rmax > 0.0, dr, 0.0)
        np.add.at(dtbar.reshape(-1), (rarg * n_samples + np.arange(n_samples)).ravel(),
                  drmax.ravel())

        # Forward transform backward through the active forward piece:
        #   tbar = w * v + beta  =>  d/dbeta = 1, d/dtheta = w * v.
        dtheta_fwd = dtbar * w[fwd_cell] * values.T
        dbeta_fwd = dtbar

        # One flat scatter per array.  Every cell belongs to one bidder, and
        # bincount adds in input order, so each cell sums its forward terms,
        # then its inverse ones, in sample order: the order the training
        # goldens pin.
        cells = np.concatenate([fwd_cell.ravel(), inv_cell.ravel()])
        dtheta, dbeta = (np.bincount(cells, np.concatenate([fwd.ravel(), inv.ravel()]),
                                     minlength=w.size).reshape(params._w.shape).T
                         for fwd, inv in ((dtheta_fwd, dtheta_inv), (dbeta_fwd, dbeta_inv)))

        return loss_value, dtheta, dbeta


def train(config: NetConfig,
          dist: ValuationDistribution) -> tuple[MonotoneNetParams, TrainingTrace]:
    """Gradient descent on fresh i.i.d. truthful batches.

    Deterministic for a given config: one RNG stream, the seed's
    ``train`` stream (:func:`~myerson_airnet.auction._stream`), drives
    both the parameter init and every batch.  Stops early
    once the loss range over a trailing 20-iteration window drops below
    ``convergence_tol``.  Raises :class:`TrainingDivergedError` on a
    non-finite loss, or once an update leaves an offset non-finite or a
    slope ``exp(theta)`` outside ``(0, inf)``.
    """
    rng = _stream(config.seed, _TAGS["train"])
    params = init_params(config, rng)
    losses: list[float] = []
    converged_at = None
    for iteration in range(config.iterations):
        batch = dist.sample(rng, (config.batch_size, config.n_bidders))
        value, dtheta, dbeta = _loss_and_grad(params, batch, config.kappa)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"non-finite loss at iteration {iteration}")
        theta = params.theta - config.learning_rate * dtheta
        beta = params.beta - config.learning_rate * dbeta
        with np.errstate(over="ignore"):
            slopes = np.exp(theta)
        if not (np.all(np.isfinite(beta)) and np.all((0.0 < slopes) & (slopes < np.inf))):
            raise TrainingDivergedError(
                f"parameters left the finite range at iteration {iteration}")
        params = MonotoneNetParams(theta, beta, params.kappa)
        losses.append(value)
        if config.convergence_tol > 0.0 and len(losses) >= 20:
            window = losses[-20:]
            if max(window) - min(window) < config.convergence_tol:
                converged_at = iteration
                break
    return params, TrainingTrace(np.asarray(losses), converged_at)
