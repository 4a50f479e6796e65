"""Analytic single-item auction mechanics.

Second-price (Vickrey) clearing and the revenue-optimal mechanism for a
known uniform valuation distribution, plus the profile and outcome types
shared by the learned mechanism and the simulator.  An outcome holds only
what a clear decides, the winner and its payment.

Second price is written once, as a row argmax and runner-up kernel.
:func:`spa_batch` runs it on bids.  The optimal auction is second price
on virtual values (Myerson, 1981): :func:`myerson_batch` runs the same
kernel on each row's virtual valuations, sells when the top one is
non-negative, and charges the inverse virtual valuation of the stronger
of the runner-up and the zero reserve.  :func:`spa_clear` and
:func:`myerson_clear` are one-row calls of the batch clears.

Every argmax in this package breaks ties toward the lowest bidder index,
so outcomes are deterministic and directly testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError


@dataclass(frozen=True)
class ValuationDistribution:
    """Uniform valuation distribution on ``[lower, upper]``; the defaults are the package's."""

    lower: float = 0.5
    upper: float = 1.0

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if not (np.isfinite(lower) and np.isfinite(upper)):
            raise InputError(f"distribution bounds must be finite, got dist_lower = {lower}, "
                             f"dist_upper = {upper}")
        if not lower < upper:
            raise InputError(f"need lower < upper, got dist_lower = {lower}, "
                             f"dist_upper = {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, v) -> bool:
        """Whether every entry of ``v`` lies in ``[lower, upper]``; NaN fails both sides."""
        v = np.asarray(v)
        return bool(v.size == 0 or (self.lower <= v.min() and v.max() <= self.upper))

    def cdf(self, v):
        return (v - self.lower) / self.width

    def pdf(self, v):
        return 1.0 / self.width

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lower, self.upper, size)


@dataclass(frozen=True)
class ValuationProfile:
    """One round's vector of private valuations under a common distribution."""

    values: np.ndarray
    distribution: ValuationDistribution

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise InputError("a valuation profile needs at least two bidders")
        if not np.all(np.isfinite(values)):
            raise InputError("valuations must be finite")
        if not self.distribution.contains(values):
            raise InputError("valuations must lie within the distribution support")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class AuctionOutcome:
    """Clearing result: the winner (``None`` on no sale) and what it pays."""

    winner: int | None
    payment: float

    @property
    def sold(self) -> bool:
        return self.winner is not None

    @property
    def revenue(self) -> float:
        return self.payment


def spa_clear(bids) -> AuctionOutcome:
    """Second-price sealed-bid clearing: highest bid wins, pays the runner-up bid."""
    b = np.asarray(bids, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise InputError("second-price clearing needs at least two bids")
    winner, payment = spa_batch(b[None, :])
    return AuctionOutcome(int(winner[0]), float(payment[0]))


def spa_batch(values) -> tuple[np.ndarray, np.ndarray]:
    """:func:`spa_clear` for every row of an ``(S, N)`` bid matrix: winners and payments."""
    b = np.asarray(values, dtype=float)
    if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 2:
        raise InputError("second-price clearing needs a non-empty matrix of at least two bids")
    if not np.all(np.isfinite(b)) or np.any(b < 0.0):
        raise InputError("bids must be finite and non-negative")
    winner, _, runner_up = _second_price(b)
    return winner, runner_up.copy()  # not a view pinning the (S, N) partition


def _second_price(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's winner (lowest index on ties), top entry and runner-up entry."""
    top_two = np.partition(x, -2, axis=-1)
    return x.argmax(axis=-1), top_two[..., -1], top_two[..., -2]


def virtual_valuation(v, dist: ValuationDistribution):
    """Marginal-revenue transform ``v - (1 - F(v)) / f(v)``.

    For uniform[a, b] this reduces to ``2 v - b``.  A scalar ``v`` gives a
    float and an array gives an array; every entry must lie in the support.
    """
    v = np.asarray(v, dtype=float)
    if not dist.contains(v):
        shown = f"value {float(v)}" if v.ndim == 0 else "a value"
        raise DomainError(f"{shown} outside support [{dist.lower}, {dist.upper}]")
    phi = _virtual_valuation(v, dist)
    return float(phi) if phi.ndim == 0 else phi


def _virtual_valuation(v: np.ndarray, dist: ValuationDistribution) -> np.ndarray:
    """The transform on values already known to lie in the support."""
    return v - (1.0 - dist.cdf(v)) / dist.pdf(v)


def virtual_valuation_inverse(y: float, dist: ValuationDistribution) -> float:
    """Inverse of :func:`virtual_valuation` on its image."""
    y = float(y)
    low = 2.0 * dist.lower - dist.upper
    if not np.isfinite(y) or not low <= y <= dist.upper:
        raise DomainError(f"{y} outside the virtual-valuation image [{low}, {dist.upper}]")
    return _virtual_valuation_inverse(y, dist)


def _virtual_valuation_inverse(y, dist: ValuationDistribution):
    """The inverse on virtual values already known to lie in its image."""
    return (y + dist.upper) / 2.0


def myerson_clear(profile: ValuationProfile) -> AuctionOutcome:
    """Revenue-optimal truthful clearing for a known uniform distribution.

    The highest virtual valuation wins when it is non-negative and pays
    the inverse virtual valuation of the stronger of the runner-up
    virtual bid and the zero reserve.  When every virtual valuation is
    negative the item is withheld.
    """
    dist = profile.distribution
    phi = _virtual_valuation(profile.values[None, :], dist)  # the profile checked the support
    winner, payment = _myerson_rows(phi, dist)
    return AuctionOutcome(None if winner[0] < 0 else int(winner[0]), float(payment[0]))


def myerson_batch(values, dist: ValuationDistribution) -> tuple[np.ndarray, np.ndarray]:
    """:func:`myerson_clear` for every row of an ``(S, N)`` value matrix.

    Returns winners and payments; a row with no sale has winner ``-1``
    and payment ``0.0``.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 2:
        raise InputError("optimal clearing needs a non-empty matrix of at least two values")
    if not np.all(np.isfinite(v)):
        raise InputError("valuations must be finite")
    return _myerson_rows(virtual_valuation(v, dist), dist)


def _myerson_rows(phi: np.ndarray, dist: ValuationDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Second price with a zero reserve on rows of virtual values."""
    winner, top, runner_up = _second_price(phi)
    sold = top >= 0.0
    reserve = np.where(runner_up < 0.0, 0.0, runner_up)  # max(runner_up, 0.0), -0.0 kept
    payment = _virtual_valuation_inverse(reserve, dist)
    return np.where(sold, winner, -1), np.where(sold, payment, 0.0)
