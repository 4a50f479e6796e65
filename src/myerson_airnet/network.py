"""Learned single-item auction built from monotone bid transforms.

Each bidder owns a piecewise-linear max-min network: ``K`` groups of
``J`` increasing affine pieces ``exp(theta) * v + beta``, combined as
``max over groups of min over pieces``.  Slopes are parameterized as
``exp(theta)`` so every piece is strictly increasing, which makes the
transform invertible in closed form: the inverse of ``y`` is ``min over
groups of max over pieces`` of ``(y - beta) * exp(-theta)``, the one
inverse formula every payment here uses.  The batch forward ends at the
payments: a bidder's conditional payment is the inverse transform of the
rectified highest rival transformed bid.  Training adds the softmax, with
temperature ``kappa`` against a fixed no-sale slot pinned at 0.

The hard clear is second price with a zero reserve on transformed bids
(MyersonNet; Dütting et al., 2019): :func:`clear_hard` runs the analytic
clears' second-price kernel on each profile, and :func:`clear_batch`
clears an ``(S, N)`` batch on the forward with the same bits, row by row.
Every clear pays ``+0.0``, never ``-0.0``, for a zero price.

Training minimizes the negative expected revenue of truthful play by
plain gradient descent.  Gradients are assembled by hand: argmax/argmin
selections route subgradients through the active piece only (ties to
the lowest index, matching the forward tie-break), the softmax and ReLU
use their standard derivatives, and ``exp`` reparameterization turns
weight gradients into ``w * dL/dw``.

Parameter arrays ``theta`` and ``beta`` have shape
``(n_bidders, groups, linear_units)``.  A parameter set is immutable: it
holds read-only copies of both and carries its slopes ``exp(theta)``,
``exp(-theta)`` and offsets ``beta``, computed once, in the kernels'
``(J, K, N)`` layout, so a trained net is a new parameter set per step.
Every piece kernel works on that layout: pieces are laid out
``(J, K, N[, S])`` (units, groups, bidders, then samples in the batch
forward), and reduced over leading axes.
The batch path keeps samples innermost all the way to the gradient: the
transformed bids, rivals, payments, softmax columns and backward terms
are ``(N, S)`` arrays, so every reduction over bidders is a few
whole-row operations rather than one short row per sample.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .auction import AuctionOutcome, ValuationDistribution, _second_price
from .errors import InputError, TrainingDivergedError

DEFAULT_KAPPA = 100.0
# Training's seed tag: SeedSequence zero-pads, so the bare seed is sim's tag 0.
_TAG_TRAIN = 900000


def _checked_kappa(kappa) -> float:
    """The softmax temperature as a float; anything but finite and positive raises."""
    try:
        kappa = float(kappa)
    except (TypeError, ValueError):
        raise InputError("kappa must be finite and positive") from None
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise InputError("kappa must be finite and positive")
    return kappa


@dataclass(frozen=True, eq=False)
class MonotoneNetParams:
    """Per-bidder log-slopes and offsets, plus the softmax temperature.

    Immutable: ``theta`` and ``beta`` are read-only copies, and the piece
    kernels' ``(J, K, N)`` slopes ``exp(theta)``, ``exp(-theta)`` and offsets
    ``beta`` are computed once, here.  A changed net is a new parameter set.
    """

    theta: np.ndarray
    beta: np.ndarray
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        beta = np.array(self.beta, dtype=float)
        if theta.ndim != 3 or theta.shape != beta.shape:
            raise InputError("theta and beta must share shape (n_bidders, groups, linear_units)")
        if min(theta.shape) < 1:
            raise InputError("every parameter dimension must be at least 1")
        if not (np.isfinite(theta).all() and np.isfinite(beta).all()):
            raise InputError("parameters must be finite")
        with np.errstate(over="ignore"):  # an inf slope clears; train refuses one
            w, w_inv = np.exp(theta), np.exp(-theta)
        # The kernels' copies are C-ordered (J, K, N): units, groups, bidders.
        for name, array in (("theta", theta), ("beta", beta), ("_w", w.T.copy()),
                            ("_w_inv", w_inv.T.copy()), ("_beta", beta.T.copy())):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "kappa", _checked_kappa(self.kappa))

    def __reduce__(self):
        # A copy or an unpickled set is built anew, so its arrays stay read-only
        # and its slopes stay those of its theta.
        return type(self), (self.theta, self.beta, self.kappa)

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
        if weight <= 0.0:
            raise InputError("affine weight must be positive")
        theta = np.full((n_bidders, 1, 1), np.log(weight))
        beta = np.full((n_bidders, 1, 1), float(offset))
        return cls(theta, beta, kappa)


@dataclass(frozen=True)
class NetConfig:
    """Architecture and training hyperparameters."""

    n_bidders: int = 5
    groups: int = 5
    linear_units: int = 3
    kappa: float = DEFAULT_KAPPA
    learning_rate: float = 0.35
    batch_size: int = 768
    iterations: int = 500
    seed: int = 0
    convergence_tol: float = 0.0

    def __post_init__(self):
        if self.n_bidders < 2:
            raise InputError(f"need at least two bidders, got n_bidders = {self.n_bidders}")
        for key in ("groups", "linear_units"):
            if getattr(self, key) < 1:
                raise InputError(f"groups and linear_units must be at least 1, got {key} = "
                                 f"{getattr(self, key)}")
        _checked_kappa(self.kappa)
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise InputError("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise InputError("batch_size must be at least 1")
        if self.iterations < 1:
            raise InputError("iterations must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be a non-negative integer")
        if not np.isfinite(self.convergence_tol) or self.convergence_tol < 0.0:
            raise InputError("convergence_tol must be non-negative")


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


# Piece kernels of the per-profile calls, on a parameter set's cached slopes
# and offsets: ``(J, K)`` for one bidder, ``(J, K, N)`` for all, with ``v`` or
# ``y`` a scalar or an ``(N,)`` row.  The cache is C-ordered and a bidder's
# slice keeps its axis order, so the pieces are C-ordered too, and each
# reduction scans a leading axis.

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


def _check_bidder(params: MonotoneNetParams, bidder) -> int:
    """``bidder`` as an index into the bidders; a non-integer or one out of range raises."""
    try:
        bidder = operator.index(bidder)
    except TypeError:
        raise InputError(f"bidder index must be an integer, got {bidder!r}") from None
    if not 0 <= bidder < params.n_bidders:
        raise InputError(f"bidder index {bidder} out of range for {params.n_bidders} bidders")
    return bidder


def transform(params: MonotoneNetParams, bidder: int, bid: float) -> float:
    """Strictly increasing max-min transform of one bidder's bid."""
    bidder = _check_bidder(params, bidder)
    bid = float(bid)
    if not np.isfinite(bid):
        raise InputError("bid must be finite")
    return float(_transformed(params._w[..., bidder], params._beta[..., bidder], bid))


def transform_inverse(params: MonotoneNetParams, bidder: int, y: float) -> float:
    """Exact inverse of :func:`transform`: min over groups of max over pieces."""
    bidder = _check_bidder(params, bidder)
    y = float(y)
    if not np.isfinite(y):
        raise InputError("transformed bid must be finite")
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
    tb = np.asarray(transformed_bids, dtype=float)
    if tb.ndim != 1 or tb.size < 1:
        raise InputError("need at least one transformed bid")
    if not np.all(np.isfinite(tb)):
        raise InputError("transformed bids must be finite")
    return _softmax_no_sale(tb[:, None], _checked_kappa(kappa))[:-1, 0]


def clear_hard(params: MonotoneNetParams, bids) -> AuctionOutcome:
    """Deterministic clearing: highest positive transformed bid wins.

    The winner pays the inverse transform of the rectified top rival bid,
    which is independent of its own bid, so truthful reporting is a
    dominant strategy.
    """
    b = np.asarray(bids, dtype=float)
    if b.size < 2:
        raise InputError("clearing needs at least two bids")
    if b.ndim != 1 or b.size != params.n_bidders:
        raise InputError(f"expected {params.n_bidders} bids, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise InputError("bids must be finite")
    winner, top, rival = _second_price(_transformed(params._w, params._beta, b))
    # Python floats, as they compare faster than numpy scalars, with the same bits.
    if not float(top) > 0.0:
        return AuctionOutcome(None, 0.0)
    rival = max(float(rival), 0.0)  # a -0.0 or NaN rival stays as it is
    if not math.isfinite(rival):
        raise InputError("transformed bid must be finite")
    payment = _inverted(params._w_inv[..., winner], params._beta[..., winner], rival)
    return AuctionOutcome(int(winner), float(payment) + 0.0)


# Rows per clear_batch block.  It bounds the temporaries (about 0.6 MB of
# pieces a block at the default net), so memory does not grow with the batch.
_CLEAR_BLOCK = 1024


def clear_batch(params: MonotoneNetParams, values) -> tuple[np.ndarray, np.ndarray]:
    """:func:`clear_hard` for every row of an ``(S, N)`` valuation batch.

    Returns each row's winner and payment, equal to :func:`clear_hard`'s bit
    for bit; a row with no sale has winner ``-1`` and payment ``0.0``.
    """
    if params.n_bidders < 2:
        raise InputError("clearing needs at least two bids")
    values = _batch_values(params, values)
    winner = np.empty(values.shape[0], dtype=np.intp)
    payment = np.empty(values.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, values.shape[0], _CLEAR_BLOCK):
            block = slice(start, start + _CLEAR_BLOCK)
            tbar, _, rmax, p, _, _ = _forward(params, values[block])
            cols = np.arange(tbar.shape[1])
            win = tbar.argmax(axis=0)
            sold = tbar[win, cols] > 0.0
            if not np.all(np.isfinite(np.maximum(rmax[win, cols], 0.0)[sold])):
                raise InputError("transformed bid must be finite")
            winner[block] = np.where(sold, win, -1)
            payment[block] = np.where(sold, p[win, cols] + 0.0, 0.0)
    return winner, payment


def _batch_values(params: MonotoneNetParams, batch) -> np.ndarray:
    """Check an (S, N) valuation matrix."""
    values = np.asarray(batch, dtype=float)
    if values.ndim != 2 or values.shape[0] < 1:
        raise InputError("batch must be a non-empty matrix of valuations")
    if values.shape[1] != params.n_bidders:
        raise InputError(f"batch has {values.shape[1]} bidders, params expect {params.n_bidders}")
    if not np.all(np.isfinite(values)):
        raise InputError("batch values must be finite")
    return values


# Where a candidate replaces the best so far under np.argmin's (np.argmax's)
# rule: strictly below (above) it, or NaN where the best is not, since both
# pick the first NaN.

def _beats_min(candidate: np.ndarray, best: np.ndarray) -> np.ndarray:
    return ~(candidate >= best) & (best == best)


def _beats_max(candidate: np.ndarray, best: np.ndarray) -> np.ndarray:
    return ~(candidate <= best) & (best == best)


def _scan(a: np.ndarray, beats, labels):
    """Value and label of the first best entry along the leading axis.

    ``labels[i]`` labels the entries of ``a[i]``.  ``beats`` is strict, so
    a tie keeps the lower index; the value is a copy of the chosen entry,
    so its sign of zero and NaNs survive.
    """
    best = a[0].copy()
    label = np.full(best.shape, labels[0])
    for i in range(1, a.shape[0]):
        take = beats(a[i], best)
        np.copyto(best, a[i], where=take)
        np.copyto(label, labels[i], where=take)
    return best, label


def _active_piece(pieces: np.ndarray, inner, outer):
    """Active piece of ``(J, K, N, S)`` pieces: its ``(N, S)`` value and cell.

    ``outer`` selects over groups of ``inner`` over units; both are
    :func:`_beats_min` or :func:`_beats_max`.  A cell is the flat index of
    the piece's ``(bidder, group, unit)`` entry in ``theta``.
    """
    n_units, n_groups, n_bidders = pieces.shape[:3]
    over_units, cell = _scan(pieces, inner, range(n_units))
    # Unit j of group k of bidder n is theta's flat entry (n * K + k) * J + j.
    cell += n_units * (n_groups * np.arange(n_bidders) + np.arange(n_groups)[:, None])[..., None]
    return _scan(over_units, outer, cell)


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


def _forward(params: MonotoneNetParams, values: np.ndarray):
    """Batch forward pass of training and :func:`clear_batch`, up to the payments.

    Returns ``tbar, rarg, rmax, p``, then the forward and inverse active
    pieces' cells (see :func:`_active_piece`), all as ``(N, S)`` arrays.
    """
    # Pieces are laid out (J, K, N, S), samples innermost: numpy reduces a
    # short trailing axis row by row, but scans a short leading one in a few
    # whole-slice comparisons.  The forward and inverse pieces share one
    # buffer, because each fresh pieces-sized temporary costs page faults.
    beta = params._beta[..., None]
    pieces = np.empty(beta.shape[:3] + values.shape[:1])
    np.multiply(params._w[..., None], values.T, out=pieces)
    pieces += beta
    tbar, fwd_cell = _active_piece(pieces, _beats_min, _beats_max)

    rarg, rmax = _top_rival(tbar)
    np.subtract(np.maximum(rmax, 0.0), beta, out=pieces)
    pieces *= params._w_inv[..., None]
    p, inv_cell = _active_piece(pieces, _beats_max, _beats_min)

    return tbar, rarg, rmax, p, fwd_cell, inv_cell


def _train_forward(params: MonotoneNetParams, values: np.ndarray, kappa: float):
    """Training's pass: ``(loss, g, forward)``, ``g`` the bidders' softmax win probabilities."""
    with np.errstate(over="ignore", invalid="ignore"):
        forward = _forward(params, values)
        g = _softmax_no_sale(forward[0], kappa)[:-1]
        return float(-(g * forward[3]).sum(axis=0).mean()), g, forward


def loss(params: MonotoneNetParams, batch, kappa: float) -> float:
    """Mean negative expected revenue of truthful play over the batch."""
    return _train_forward(params, _batch_values(params, batch), _checked_kappa(kappa))[0]


def grad(params: MonotoneNetParams, batch, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Hand-assembled ``(dL/dtheta, dL/dbeta)`` for :func:`loss`."""
    _, dtheta, dbeta = _loss_and_grad(params, _batch_values(params, batch),
                                      _checked_kappa(kappa))
    return dtheta, dbeta


def _loss_and_grad(params: MonotoneNetParams, values: np.ndarray, kappa: float):
    with np.errstate(over="ignore", invalid="ignore"):
        loss_value, g, (_, rarg, rmax, p, fwd_cell, inv_cell) = _train_forward(
            params, values, kappa)
        # The cached slopes in theta's flat layout, which the cells index.
        w = params._w.T.ravel()
        w_inv = params._w_inv.T.ravel()
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
                                     minlength=w.size).reshape(params.theta.shape)
                         for fwd, inv in ((dtheta_fwd, dtheta_inv), (dbeta_fwd, dbeta_inv)))

        return loss_value, dtheta, dbeta


def train(config: NetConfig,
          dist: ValuationDistribution) -> tuple[MonotoneNetParams, TrainingTrace]:
    """Gradient descent on fresh i.i.d. truthful batches.

    Deterministic for a given config: one RNG stream, tagged off the
    seed, drives both the parameter init and every batch.  Stops early
    once the loss range over a trailing 20-iteration window drops below
    ``convergence_tol``.  Raises :class:`TrainingDivergedError` on a
    non-finite loss, or once an update leaves an offset non-finite or a
    slope ``exp(theta)`` outside ``(0, inf)``.
    """
    rng = np.random.default_rng([config.seed, _TAG_TRAIN])
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
