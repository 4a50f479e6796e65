"""Analytic single-item auction mechanics.

Second-price (Vickrey) clearing and the revenue-optimal mechanism for a
known uniform valuation distribution, plus the profile and outcome types
shared by the learned mechanism and the simulator.

Every argmax in this package breaks ties toward the lowest bidder index,
so outcomes are deterministic and directly testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            raise InputError("distribution bounds must be finite")
        if not lower < upper:
            raise InputError(f"need lower < upper, got [{lower}, {upper}]")
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
    n_bidders: int = field(init=False)

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
        object.__setattr__(self, "n_bidders", int(values.size))


@dataclass(frozen=True)
class AuctionOutcome:
    """Clearing result: winner (or no sale), payment, allocation, revenue."""

    winner: int | None
    payment: float
    allocation: np.ndarray
    revenue: float

    @property
    def sold(self) -> bool:
        return self.winner is not None


def _no_sale(n: int) -> AuctionOutcome:
    return AuctionOutcome(None, 0.0, np.zeros(n), 0.0)


def _one_hot_outcome(winner: int, payment: float, n: int) -> AuctionOutcome:
    allocation = np.zeros(n)
    allocation[winner] = 1.0
    return AuctionOutcome(winner, payment, allocation, payment)


def spa_clear(bids) -> AuctionOutcome:
    """Second-price sealed-bid clearing: highest bid wins, pays the runner-up bid."""
    b = np.asarray(bids, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise InputError("second-price clearing needs at least two bids")
    if not np.all(np.isfinite(b)) or np.any(b < 0.0):
        raise InputError("bids must be finite and non-negative")
    winner = int(np.argmax(b))
    payment = float(np.partition(b, -2)[-2])
    return _one_hot_outcome(winner, payment, b.size)


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
    return (y + dist.upper) / 2.0


def myerson_clear(profile: ValuationProfile) -> AuctionOutcome:
    """Revenue-optimal truthful clearing for a known uniform distribution.

    The highest virtual valuation wins when it is non-negative and pays
    the inverse virtual valuation of the stronger of the runner-up
    virtual bid and the zero reserve.  When every virtual valuation is
    negative the item is withheld.
    """
    dist = profile.distribution
    values = profile.values
    phi = _virtual_valuation(values, dist)  # the profile already checked the support
    winner = int(np.argmax(phi))
    if phi[winner] < 0.0:
        return _no_sale(values.size)
    runner_up = float(np.partition(phi, -2)[-2])
    payment = virtual_valuation_inverse(max(runner_up, 0.0), dist)
    return _one_hot_outcome(winner, payment, values.size)
